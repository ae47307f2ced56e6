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
# The decisions at T=1000 targets, D=20, n=200, where phase I makes most of
# the comparisons; its smallest phase-II margin is 8.4e-6.
T1000_DIGEST = "5ab528e040f74cc850ba684608da348ead184382e3acb9109f5fc3f595c11b9b"


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


def test_a_target_row_records_phase1_comparisons(tmp_path):
    out = tmp_path / "BENCH.json"
    assert bench_scaling.main(["--targets", "1000", "--out", str(out)]) == 0
    (row,) = json.loads(out.read_text())["scaling"]["change"]["rows"]
    assert (row["T"], row["D"], row["n"]) == (1000, 20, 200)
    assert (row["comparisons"], row["phase1_comparisons"]) == (4158, 3904)
    assert row["decisions_sha256"] == T1000_DIGEST
    assert row["seconds"] > 0


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
    for side in scaling.values():
        side["rows"].append({"T": 1000, "D": 20, "decisions_sha256": "t"})
    assert bench_scaling.compare_sides(scaling) == [
        {"D": 100, "same_decisions": False}, {"T": 1000, "same_decisions": True}]


def test_unknown_rows_are_rejected():
    with pytest.raises(SystemExit):
        bench_scaling.main(["--rows", "100,300"])
    with pytest.raises(SystemExit):
        bench_scaling.main(["--targets", "5000"])
