"""Time ``nonlin_ctfa`` on the scaling rows and write them to a BENCH_*.json file.

    python3 tools/bench_scaling.py                      # D = 100, 200, 400, 800
    python3 tools/bench_scaling.py --rows 100,200       # a quick smoke run
    python3 tools/bench_scaling.py --targets 1000,3000,10000  # the target rows
    python3 tools/bench_scaling.py --src ../base-checkout/src --side base \\
        --rows 100,200,400,800,1600 --out BENCH_11.json

Each feature row runs ``nonlin_ctfa`` once on ``center(generate(SynthConfig(
n_features=D, n_train=int(2.5*D)), 10)[0])``; each target row (``--targets``)
on ``SynthConfig(n_tasks=T, n_features=20, n_train=200)``, where phase I makes
most of the comparisons.  Both run with epsilon1 0, epsilon2 1e-4 and seed
10, and record the wall time, the comparison count of each phase, a SHA-256
digest of the decisions (the partitions and every record's phase, task
cluster, cluster, candidate and decision), the smallest phase-II margin
|r_gap - epsilon2| and the number of ``numpy.linalg.svd`` calls.  Neither
data generation nor a first, untimed run of the smallest feature row is
timed.  D=1600 takes minutes, so it runs only when ``--rows`` names it; with
``--targets`` alone only the target rows run.

``--src`` picks the ``mtaggr`` source tree to import, so one script times a
change and its base; ``--out`` stores the rows under ``scaling.<side>`` of
the file, keeping everything else in it, and, once both sides are there,
says for each row whether their digests agree.  Without ``--out`` the rows
are printed as JSON lines.  Standard library only, besides ``mtaggr`` and
numpy.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ROWS = (100, 200, 400, 800, 1600)
DEFAULT_ROWS = ROWS[:-1]
TARGET_ROWS = (1000, 3000, 10000)
TARGET_FEATURES, TARGET_SAMPLES = 20, 200
EPSILON1, EPSILON2, SEED, DATA_SEED = 0.0, 1e-4, 10, 10
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def decisions_digest(result) -> str:
    """SHA-256 of both partitions and every record's decision."""
    doc = {
        "task_clusters": result.task_partition.clusters,
        "feature_clusters": [fp.clusters for fp in result.feature_partitions],
        "decisions": [(r.phase, r.task_cluster, r.cluster_id, r.candidate, r.accepted)
                      for r in result.trace],
    }
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


def row(D: int, T: int | None = None) -> dict:
    """Time one ``nonlin_ctfa`` run: D features and n = 2.5 D samples, or T targets.

    A target row (T given) has D = 20 features and n = 200 samples.
    """
    import numpy as np
    from mtaggr import aggregation
    from mtaggr.data import center
    from mtaggr.synth import SynthConfig, generate

    if T is None:
        n = int(2.5 * D)
        config = SynthConfig(n_features=D, n_train=n)
    else:
        n = TARGET_SAMPLES
        config = SynthConfig(n_tasks=T, n_features=D, n_train=n)
    dataset = center(generate(config, DATA_SEED)[0]).dataset
    svd, calls = np.linalg.svd, [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return svd(*args, **kwargs)

    np.linalg.svd = counted
    try:
        start = time.perf_counter()
        result = aggregation.nonlin_ctfa(dataset, EPSILON1, EPSILON2, SEED)
        seconds = time.perf_counter() - start
    finally:
        np.linalg.svd = svd
    gaps = [abs(r.r_gap - EPSILON2) for r in result.trace
            if r.phase == 2 and r.r_gap is not None]
    phase1 = sum(r.phase == 1 for r in result.trace)
    return {
        **({} if T is None else {"T": T}),
        "D": D,
        "n": n,
        "seconds": seconds,
        "comparisons": len(result.trace),
        "phase1_comparisons": phase1,
        "phase2_comparisons": len(result.trace) - phase1,
        "decisions_sha256": decisions_digest(result),
        "min_phase2_margin": min(gaps) if gaps else None,
        "svd_calls": calls[0],
    }


def row_key(r: dict) -> tuple[str, int]:
    """A row's name: ("T", T) for a target row, else ("D", D)."""
    return ("T", r["T"]) if "T" in r else ("D", r["D"])


def environment() -> dict:
    import numpy as np

    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(),
            "thread_env": {k: os.environ.get(k) for k in THREAD_ENV}}


def commit(tree: Path) -> str | None:
    """The commit checked out in ``tree``, marked dirty if it has changes."""
    done = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=tree,
                          capture_output=True, text=True)
    return done.stdout.strip() or None


def compare_sides(scaling: dict) -> list[dict]:
    """Per row timed on both sides: whether the decision digests agree."""
    rows = {side: {row_key(r): r for r in scaling[side]["rows"]} for side in scaling}
    if set(rows) != {"base", "change"}:
        return []
    return [{key[0]: key[1], "same_decisions": rows["base"][key]["decisions_sha256"]
             == rows["change"][key]["decisions_sha256"]}
            for key in sorted(set(rows["base"]) & set(rows["change"]))]


def parse_values(text: str, known: tuple[int, ...], name: str) -> list[int]:
    values = [int(v) for v in text.split(",")]
    unknown = sorted(set(values) - set(known))
    if unknown:
        raise argparse.ArgumentTypeError(
            f"no scaling row for {name} = {unknown}; rows are {known}")
    return values


def parse_rows(text: str) -> list[int]:
    return parse_values(text, ROWS, "D")


def parse_targets(text: str) -> list[int]:
    return parse_values(text, TARGET_ROWS, "T")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=parse_rows,
                        help="comma-separated D values (default 100,200,400,800 "
                             "unless --targets is given)")
    parser.add_argument("--targets", type=parse_targets, default=[],
                        help="comma-separated T values of the target rows "
                             "(1000,3000,10000)")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the source tree whose mtaggr is timed")
    parser.add_argument("--side", choices=("base", "change"), default="change")
    parser.add_argument("--out", type=Path, help="BENCH_*.json file to add the rows to")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    sys.path.insert(0, str(src))
    if args.rows is None:
        args.rows = [] if args.targets else list(DEFAULT_ROWS)
    row(ROWS[0])  # untimed: the first call's one-off set-up is not a row's cost
    rows = []
    runs = [(D, None) for D in args.rows] + [(TARGET_FEATURES, T) for T in args.targets]
    for D, T in runs:
        rows.append(row(D, T))
        print(json.dumps(rows[-1]), flush=True)
    if args.out is None:
        return 0
    doc = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    scaling = doc.setdefault("scaling", {})
    scaling[args.side] = {"commit": commit(src.parent), "environment": environment(),
                          "epsilon1": EPSILON1, "epsilon2": EPSILON2, "seed": SEED,
                          "rows": rows}
    doc["scaling_decisions"] = compare_sides(scaling)
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    for entry in doc["scaling_decisions"]:
        name = "T" if "T" in entry else "D"
        print(f"{name}={entry[name]}: decisions "
              f"{'agree' if entry['same_decisions'] else 'DIFFER'}", flush=True)
    return 0 if all(e["same_decisions"] for e in doc["scaling_decisions"]) else 1


if __name__ == "__main__":
    sys.exit(main())
