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


def test_summaries_state_gains_and_regressions():
    metrics = [{"name": name, "better": better, "bound": 0.25}
               for name, better in (("fast", "lower"), ("tied", "lower"), ("close", "lower"),
                                    ("slow", "lower"), ("rate", "higher"))]
    base = {"fast": [1.0 + k / 100 for k in range(10)], "tied": [1.0] * 10,
            "close": [1.0 + k / 10 for k in range(10)], "slow": [1.0] * 10,
            "rate": [1.0] * 10}
    change = {"fast": [0.9] * 10,
              # Nine wins and one tie: ties count for neither side.
              "tied": [0.5] * 9 + [1.0],
              # Ten wins, but a median gap inside the base's spread.
              "close": [v - 0.01 for v in base["close"]],
              "slow": [1.3] * 10, "rate": [1.2] * 9 + [0.9]}
    pairs = [{side: {"metrics": {name: {"value": values[name][k]} for name in values}}
              for side, values in (("base", base), ("change", change))}
             for k in range(10)]
    summary = bench_record.summarize(pairs, metrics)
    verdicts = {name: (entry["wins"], entry["gain"], entry["regressed"])
                for name, entry in summary.items()}
    assert verdicts == {"fast": (10, True, False), "tied": (9, True, False),
                        "close": (10, False, False), "slow": (0, False, True),
                        "rate": (9, True, False)}
    # Eight wins are too few, whatever the medians.
    pairs[0]["change"]["metrics"]["tied"]["value"] = 1.5
    assert not bench_record.summarize(pairs, metrics)["tied"]["gain"]
