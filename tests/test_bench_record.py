"""The paired benchmark recorder, run with a fake benchmark."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def fake_runner(times):
    """A runner whose invocation_s for each side is taken from ``times`` in turn."""
    calls = []

    def run(tree, workload, seed, seconds):
        side = "change" if tree == bench_record.ROOT else "base"
        calls.append(side)
        value = times[side].pop(0)
        metrics = {name: {"value": value, "unit": "s"}
                   for name in ("invocation_s", "setup_s", "peak_rss_mb")}
        return {"correct": True, "metrics": metrics}, {"cpu": "fake"}

    return run, calls


def test_pairs_alternate_and_summaries_count_wins():
    run, calls = fake_runner({"base": [1.0, 1.1, 0.9, 1.2], "change": [0.8, 0.9, 1.0, 0.7]})
    doc = {"environment": None, "runs": {}}
    bench_record.record(doc, Path("base"), ["many_targets"], [0], 4, 1.0, runner=run)
    assert calls == ["base", "change", "change", "base"] * 2
    group = doc["runs"]["many_targets/seed0"]
    assert group["correct"] and len(group["pairs"]) == 4
    summary = group["summary"]["invocation_s"]
    assert summary["wins"] == 3 and summary["pairs"] == 4
    assert summary["base"]["median"] == pytest.approx(1.05)
    assert summary["change"]["median"] == pytest.approx(0.85)
    assert summary["base"]["q1"] <= summary["base"]["median"] <= summary["base"]["q3"]
    assert doc["environment"] == {"cpu": "fake"}


def test_a_changed_environment_is_an_error():
    run, _ = fake_runner({"base": [1.0], "change": [1.0]})
    doc = {"environment": {"cpu": "other"}, "runs": {}}
    with pytest.raises(RuntimeError, match="environment"):
        bench_record.record(doc, Path("base"), ["reference"], [0], 1, 1.0, runner=run)
