"""The scaling-row timer, run on its smallest row."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_scaling.py"
_spec = importlib.util.spec_from_file_location("bench_scaling", _PATH)
bench_scaling = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_scaling)

# The decisions of nonlin_ctfa at D=100, n=250; their smallest phase-II
# margin is 6.1e-6, far above any rounding difference between BLAS builds.
D100_DIGEST = "ed0cb53ff202c461923ef4e430d2b35eaba36c5953fe28030d6269c676b2b883"


def test_a_row_records_decisions_margin_and_svd_calls(tmp_path):
    out = tmp_path / "BENCH.json"
    out.write_text(json.dumps({"runs": {"kept": True}}))
    assert bench_scaling.main(["--rows", "100", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["runs"] == {"kept": True}
    (row,) = doc["scaling"]["change"]["rows"]
    assert (row["D"], row["n"]) == (100, 250)
    assert (row["comparisons"], row["phase2_comparisons"]) == (363, 350)
    assert row["decisions_sha256"] == D100_DIGEST
    assert row["min_phase2_margin"] == pytest.approx(6.13e-6, rel=1e-2)
    assert row["svd_calls"] == 1
    assert row["seconds"] > 0
    assert doc["scaling_decisions"] == []


def test_both_sides_are_compared(tmp_path):
    out = tmp_path / "BENCH.json"
    for side in ("base", "change"):
        assert bench_scaling.main(["--rows", "100", "--side", side,
                                   "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["scaling_decisions"] == [{"D": 100, "same_decisions": True}]


def test_differing_decisions_are_reported():
    scaling = {
        "base": {"rows": [{"D": 100, "decisions_sha256": "a"}]},
        "change": {"rows": [{"D": 100, "decisions_sha256": "b"},
                            {"D": 200, "decisions_sha256": "c"}]},
    }
    assert bench_scaling.compare_sides(scaling) == [{"D": 100, "same_decisions": False}]


def test_unknown_rows_are_rejected():
    with pytest.raises(SystemExit):
        bench_scaling.main(["--rows", "100,300"])
