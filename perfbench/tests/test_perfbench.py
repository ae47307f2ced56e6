"""Tests of the benchmark itself: metric tables, checks, tracing and a smoke run.

    python3 -m pytest perfbench/tests

The smoke runs take about two minutes: each workload runs once untraced and
once traced with a one-second budget (three rounds at least).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import expect  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from spans import Tracer, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Every metric the benchmark's definition names, by name.
NAMED_END_TO_END = {"invocation_s", "setup_s", "peak_rss_mb"}
NAMED_PER_LAYER = (
    {f"aggregation.phase{p}.{m}" for p in (1, 2)
     for m in ("s", "self_s", "comparisons", "accepts", "accept_ratio")}
    | {f"aggregation.threshold_{k}.{m}" for k in ("targets", "features")
       for m in ("calls", "self_s")}
    | {"aggregation.nonlin_ctfa_homogeneous.s", "aggregation.nonlin_ctfa_homogeneous.self_s",
       "aggregation.result_to_json.s", "aggregation.result_mb", "aggregation.apply_partition.s"}
    | {f"linstats.lstsq.{m}" for m in
       ("calls", "s", "per_comparison", "rank_deficient", "gflop_computed")}
    | {"data.load_dataset.s", "data.center.s", "data.input_mb", "cli.aggregate.self_s"}
    | {"oracle.monte_carlo.calls", "oracle.monte_carlo.s", "oracle.monte_carlo.self_s",
       "oracle.noise_sample.calls", "oracle.noise_sample.s", "oracle.population_bias.s",
       "oracle.lstsq.calls", "oracle.lstsq.s"}
    | {f"checks.{name}.s" for name in layers.CHECK_NAMES}
    | {"bench.trace_overhead_ratio", "failed_ops_ratio", "comparisons_per_s"}
)


def bench_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_matches_the_code():
    doc = bench_json()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                        "per_layer"}
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == list(
        layers.PER_LAYER)
    assert NAMED_END_TO_END <= {m["name"] for m in doc["end_to_end"]}
    assert NAMED_PER_LAYER <= {m["name"] for m in doc["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_self_time_subtracts_direct_children():
    tracer = Tracer()

    def leaf():
        return sum(range(1000))

    traced_leaf = tracer.wrap("leaf", leaf)
    outer = tracer.wrap("outer", lambda: [traced_leaf() for _ in range(3)])
    outer()
    own = self_times(tracer.spans)
    assert [s.name for s in tracer.spans] == ["outer", "leaf", "leaf", "leaf"]
    assert tracer.spans[1].parent == 0
    children = sum(s.duration for s in tracer.spans[1:])
    assert own[0] == pytest.approx(tracer.spans[0].duration - children)


def test_patch_and_restore_leave_the_original():
    import types

    module = types.SimpleNamespace(f=lambda x: x + 1)
    original = module.f
    tracer = Tracer()
    tracer.patch(module, "f", "f")
    assert module.f(1) == 2 and len(tracer.spans) == 1
    tracer.restore()
    assert module.f is original


def test_close_uses_the_replay_tolerance():
    assert expect.close({"a": [1.0, None, True]}, {"a": [1.0 + 1e-12, None, True]}, "x") == []
    assert expect.close({"a": 1.0}, {"a": 1.0 + 1e-6}, "x")
    assert expect.close({"a": True}, {"a": False}, "x")
    assert expect.close({"a": 1.0}, {"b": 1.0}, "x") == ["x.a: missing"]


def test_a_flipped_decision_is_a_mismatch():
    expected = expect.load_expected("reference")["datasets"]["ref0"]["result"]
    doc = {
        "task_clusters": expected["task_clusters"],
        "feature_clusters": expected["feature_clusters"],
        "trace": [
            dict(zip(("phase", "cluster", "candidate", "accepted"), decision),
                 **{f: expected["scalars"][f][k] for f in expect.SCALARS})
            for k, decision in enumerate(expected["decisions"])
        ],
    }
    assert expect.close(expected, expect.summarize_result(doc), "result") == []
    doc["trace"][0]["accepted"] = not doc["trace"][0]["accepted"]
    assert expect.close(expected, expect.summarize_result(doc), "result")


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_reports_every_metric(workload, trace):
    done = _run("--workload", workload, "--seed", "0", "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    table = run.END_TO_END if trace == "0" else layers.PER_LAYER
    assert list(result["metrics"]) == [name for name, _, _ in table]
    for name, unit, _ in table:
        assert result["metrics"][name]["unit"] == unit
    if trace == "0":
        assert all(result["metrics"][name]["value"] > 0 for name in NAMED_END_TO_END)
    assert not (ROOT / ".perfbench_work").exists()


def test_without_the_library_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = _run("--workload", "reference", "--seed", "0", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
