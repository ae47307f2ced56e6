"""Benchmark of the mtaggr command line: ``aggregate`` and ``verify --quick``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                 # every workload, one process each

A run builds the workload's inputs from the seed, then invokes
``mtaggr.cli.main`` in-process in rounds (one invocation per dataset of the
workload) until ``--seconds`` have passed, and checks every invocation's
outputs outside the timed region.  With ``--trace 0`` it prints the
end-to-end metrics; with ``--trace 1`` it alternates traced and untraced
rounds and prints the per-layer metrics.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

Exit codes: 0 when every output is correct, 1 on any mismatch, 2 when the
library cannot be imported from ``src/`` next to this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import machine

machine.pin_threads()

import expect  # noqa: E402
import layers  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402
import yardstick  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

MIN_ROUNDS = 3  # repeats for the fresh-run check; traced runs get two traced rounds
SETUPS = 3  # set-ups per run; setup_s is their median

# (name, unit, better); the bounds live in BENCHMARK.json.
END_TO_END = (
    ("invocation_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import mtaggr.cli; print(time.perf_counter() - t)"
)


def import_library():
    """Import ``mtaggr.cli`` from this checkout's ``src``; None if it is not there."""
    sys.path.insert(0, str(SRC))
    try:
        import mtaggr.cli
    except ImportError:
        return None
    if not Path(mtaggr.cli.__file__).resolve().is_relative_to(SRC):
        return None
    return mtaggr.cli


def import_seconds() -> float:
    """``import mtaggr.cli`` in a fresh interpreter, timed inside it."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def set_up(workload, seed: int, workdir: Path, gauge):
    """Build the inputs ``SETUPS`` times; return the median set-up time at the
    nominal speed and the invocations."""
    samples = []
    for _ in range(SETUPS):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        start = perf_counter()
        invocations = workload.build(seed, workdir)
        samples.append(gauge.scaled(perf_counter() - start + import_seconds()))
    return statistics.median(samples), invocations


def invoke(cli, inv) -> tuple[float, int]:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = perf_counter()
        rc = cli.main(list(inv.argv))
        elapsed = perf_counter() - start
    return elapsed, rc


class Checker:
    """Checks each invocation's outputs and keeps the per-dataset facts."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.expected = expect.load_expected(workload.name) if seed == expect.DEFAULT_SEED else None
        self.check_names = layers.CHECK_NAMES
        self.first_digest: dict[str, str] = {}
        self.first_rc: dict[str, int] = {}
        self.comparisons: dict[str, int] = {}
        self.trace_counts: dict[str, dict[str, int]] = {}
        self.failed_checks = 0
        self.errors: list[str] = []

    def __call__(self, inv, rc: int) -> bool:
        errors = []
        if inv.label not in self.first_digest:
            errors = self._first(inv, rc)
            if not errors:
                self.first_digest[inv.label] = expect.digest(inv.outputs)
        elif rc != self.first_rc[inv.label] or (
                expect.digest(inv.outputs) != self.first_digest[inv.label]):
            errors = [f"{inv.label}: outputs differ from the first run on the same input"]
        self.errors.extend(errors)
        return not errors

    def _first(self, inv, rc: int) -> list[str]:
        self.first_rc[inv.label] = rc
        if self.workload.command == "verify":
            errors, report = expect.check_verify(inv.outputs, rc, self.check_names,
                                                 self.expected)
            if report is not None:
                self.comparisons[inv.label] = expect.verify_comparisons(report)
                self.failed_checks = sum(not c["passed"] for c in report["checks"])
        else:
            expected = self.expected["datasets"][inv.label] if self.expected else None
            if expected is not None and expected["data_seed"] != inv.data_seed:
                return [f"{inv.label}: expectations are for data seed {expected['data_seed']}"]
            errors, doc = expect.check_aggregate(inv.outputs, rc, *inv.shape,
                                                 expected and expected["result"])
            if doc is not None:
                self.comparisons[inv.label] = len(doc["trace"])
                self.trace_counts[inv.label] = expect.trace_counts(doc)
        return [f"{inv.label}: {e}" for e in errors]


def measure(cli, invocations, checker, gauge, seconds: float, trace: bool):
    """Run rounds until ``seconds`` have passed; return the per-round records."""
    tracer = Tracer()
    rounds = []
    start = perf_counter()
    while True:
        traced = trace and len(rounds) % 2 == 0
        tracer.clear()
        if traced:
            layers.install(tracer)
        record = {"traced": traced, "times": [], "scaled": [], "comparisons": 0, "ok": []}
        wall = perf_counter()
        try:
            for inv in invocations:
                elapsed, rc = invoke(cli, inv)
                record["times"].append(elapsed)
                record["scaled"].append(gauge.scaled(elapsed))
                record["ok"].append(checker(inv, rc))
                record["comparisons"] += checker.comparisons.get(inv.label, 0)
        finally:
            tracer.restore()
        if traced:
            record["spans"] = list(tracer.spans)
        rounds.append(record)
        last = perf_counter() - wall
        if len(rounds) >= MIN_ROUNDS and perf_counter() - start + last > seconds:
            return rounds


def check_traced(rounds, invocations, checker, command: str) -> None:
    """Span counters must equal the counts in the outputs, and repeat exactly."""
    first_lstsq = None
    for record in (r for r in rounds if r["traced"]):
        counters = layers.invocation_counters(record["spans"])
        lstsq = layers.lstsq_counts(record["spans"])
        if first_lstsq is None:
            first_lstsq = lstsq
        elif lstsq != first_lstsq:
            checker.errors.append(f"lstsq call counts changed between rounds: {first_lstsq} vs {lstsq}")
            record["ok"] = [False] * len(record["ok"])
        if command == "aggregate":
            roots = [c for c in counters if c["root"] == "cli.aggregate"]
            if len(roots) != len(invocations):
                checker.errors.append("one cli.aggregate span per invocation expected")
                record["ok"] = [False] * len(record["ok"])
                continue
            for k, (inv, spans_count) in enumerate(zip(invocations, roots)):
                want = checker.trace_counts.get(inv.label, {})
                got = {key: spans_count.get(key, 0) for key in want}
                if got != want:
                    checker.errors.append(f"{inv.label}: span counters {got} != trace {want}")
                    record["ok"][k] = False
        else:
            got = sum(c.get("phase1.comparisons", 0) + c.get("phase2.comparisons", 0)
                      for c in counters if c["root"].startswith("checks.merge_guarantee"))
            want = sum(checker.comparisons.values())
            if got != want:
                checker.errors.append(f"span comparisons {got} != report-derived {want}")
                record["ok"] = [False] * len(record["ok"])


def invocation_seconds(rounds) -> float:
    """Time of one invocation at the nominal speed: each dataset's median over
    the untraced rounds, averaged over the workload's datasets."""
    untraced = [r["scaled"] for r in rounds if not r["traced"]]
    return statistics.fmean(statistics.median(times) for times in zip(*untraced))


def end_to_end(rounds, setup_s: float) -> dict[str, float]:
    return {
        "invocation_s": invocation_seconds(rounds),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(rounds, invocations, checker, failed_ratio: float) -> dict[str, float]:
    traced = [layers.round_metrics(r["spans"], len(invocations)) for r in rounds if r["traced"]]
    out = {name: statistics.median([m.get(name, 0.0) for m in traced])
           for name, _, _ in layers.PER_LAYER}
    inputs = [p for inv in invocations for p in inv.inputs]
    results = [inv.outputs / "result.json" for inv in invocations if inv.outputs.is_dir()]
    out["data.input_mb"] = sum(p.stat().st_size for p in inputs) / 1e6 / len(invocations)
    out["aggregation.result_mb"] = sum(p.stat().st_size for p in results) / 1e6 / len(invocations)
    out["checks.failed"] = checker.failed_checks
    plain = statistics.median([sum(r["scaled"]) for r in rounds if not r["traced"]])
    with_spans = statistics.median([sum(r["scaled"]) for r in rounds if r["traced"]])
    out["bench.trace_overhead_ratio"] = with_spans / plain - 1.0
    out["failed_ops_ratio"] = failed_ratio
    comparisons = statistics.median(r["comparisons"] for r in rounds if not r["traced"])
    out["comparisons_per_s"] = comparisons / (invocation_seconds(rounds) * len(invocations))
    return out


def run_workload(args) -> int:
    cli = import_library()
    if cli is None:
        print(f"cannot import mtaggr from {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    workdir = WORK / f"{workload.name}-{os.getpid()}"
    try:
        gauge = yardstick.Gauge(workload.yardstick)
        setup_s, invocations = set_up(workload, args.seed, workdir, gauge)
        checker = Checker(workload, args.seed)
        rounds = measure(cli, invocations, checker, gauge, args.seconds, bool(args.trace))
        if args.trace:
            check_traced(rounds, invocations, checker, workload.command)
        oks = [ok for r in rounds for ok in r["ok"]]
        attempted, failed = len(oks), oks.count(False)
        if args.trace:
            values = per_layer(rounds, invocations, checker, failed / attempted)
            units = {name: unit for name, unit, _ in layers.PER_LAYER}
        else:
            values = end_to_end(rounds, setup_s)
            units = {name: unit for name, unit, _ in END_TO_END}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    print(f"workload {workload.name} seed {args.seed}: {len(rounds)} rounds x "
          f"{len(invocations)} invocations ({sum(r['traced'] for r in rounds)} traced), "
          f"{attempted} attempted, {failed} failed, failed_ops_ratio {failed / attempted:.4g}")
    for error in checker.errors[:20]:
        print(f"  mismatch: {error}")
    if checker.failed_checks:
        print(f"  verify: {checker.failed_checks} statistical check(s) did not pass")
    for name, value in values.items():
        print(f"  {name:45s} {value:14.6g} {units[name]}")
    if not args.trace:
        wall = [sum(r["times"]) / len(invocations) for r in rounds]
        print(f"  wall time per invocation over {len(wall)} rounds, unscaled: median "
              f"{statistics.median(wall):.6g} s, fastest {min(wall):.6g} s, "
              f"slowest {max(wall):.6g} s; setup_s over {SETUPS} set-ups")
        print(f"  yardstick {'+'.join(workload.yardstick)}: median reading "
              f"{statistics.median(gauge.readings):.6g} s over {len(gauge.readings)} "
              f"readings, nominal {gauge.nominal:.6g} s")
    print("environment " + json.dumps(machine.environment(), sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload in its own process; nonzero exit on any mismatch."""
    status = 0
    summary = {}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if done.returncode in (0, 1) and lines else None
        if done.returncode != 0 or result is None or not result["correct"]:
            status = 1
            sys.stdout.write(done.stdout)
            sys.stdout.write(done.stderr)
        summary[name] = result
        if result is not None:
            print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} "
                  f"failed_ops_ratio={result['failed'] / result['attempted']:.4g}")
            for metric, entry in result["metrics"].items():
                print(f"  {metric:45s} {entry['value']:14.6g} {entry['unit']}")
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help="reference, many_targets, slabs, verify_quick, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
