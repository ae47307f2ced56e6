"""Workload input generators and the command line each workload runs.

Every workload turns the benchmark seed into input files with
``mtaggr.synth.generate`` plus the slab generator and CSV writer below, and
returns the ``mtaggr`` argument lists that are timed.  The library only sees
the generated CSV (or, for ``verify_quick``, the seed flag).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# The acceptance suite reproduces the reference benchmark on seeds 10..19;
# the reference workload starts there so that seed 0 runs acceptance data.
ACCEPTANCE_SEED0 = 10
REFERENCE_DATASETS = 3
# The comparison count of one many_targets dataset varies by about 10 % with
# its seed; a round of several datasets averages that out.
MANY_TARGETS_DATASETS = 3


@dataclass(frozen=True)
class Invocation:
    """One timed call of ``mtaggr.cli.main``.

    ``label`` names the dataset inside the workload, ``data_seed`` is the
    seed the data (and the command's own ``--seed``) came from, ``inputs``
    are the files the command reads and ``outputs`` the directory or file it
    writes.
    """

    label: str
    data_seed: int
    argv: tuple[str, ...]
    inputs: tuple[Path, ...]
    outputs: Path
    shape: tuple[int, int] = (0, 0)  # (targets, features) of an aggregate input


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "aggregate" or "verify"
    why: str
    build: Callable[[int, Path], list[Invocation]]
    # Kernels of ``yardstick.KERNELS`` that do the kind of work this workload
    # spends its time on; they gauge the machine's speed during a run.
    yardstick: tuple[str, ...]


def write_csv(path: Path, header: list[str], table: np.ndarray) -> None:
    """Write a numeric table with a header; cells use the exact float repr."""
    with path.open("w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in table.tolist():
            fh.write(",".join(map(repr, row)) + "\n")


def _aggregate_argv(csv: Path, targets: list[str], seed: int, out: Path,
                    extra: tuple[str, ...]) -> tuple[str, ...]:
    return ("aggregate", "--input", str(csv), "--targets", ",".join(targets),
            *extra, "--seed", str(seed), "--out-dir", str(out), "--quiet")


def _shared_features(config, seed: int, workdir: Path, label: str) -> Invocation:
    from mtaggr.synth import generate

    train, _, _ = generate(config, seed)
    csv = workdir / f"{label}.csv"
    write_csv(csv, list(train.feature_names) + list(train.target_names),
              np.hstack([train.features, train.targets]))
    argv = _aggregate_argv(csv, list(train.target_names), seed, workdir / f"{label}.out",
                           ("--epsilon1", repr(config.epsilon1),
                            "--epsilon2", repr(config.epsilon2)))
    return Invocation(label, seed, argv, (csv,), workdir / f"{label}.out",
                      (config.n_tasks, config.n_features))


def build_reference(seed: int, workdir: Path) -> list[Invocation]:
    from mtaggr.synth import SynthConfig

    return [
        _shared_features(SynthConfig(), ACCEPTANCE_SEED0 + seed + k, workdir, f"ref{k}")
        for k in range(REFERENCE_DATASETS)
    ]


def build_many_targets(seed: int, workdir: Path) -> list[Invocation]:
    from mtaggr.synth import SynthConfig

    config = SynthConfig(n_tasks=1000, n_features=20, n_train=200)
    return [
        _shared_features(config, MANY_TARGETS_DATASETS * seed + k, workdir, f"many{k}")
        for k in range(MANY_TARGETS_DATASETS)
    ]


SLAB_TASKS = 100
SLAB_FEATURES = 50
SLAB_ROWS = 125


def build_slabs(seed: int, workdir: Path) -> list[Invocation]:
    """Per-task slabs: the shared feature draw plus unit-variance noise per task."""
    from mtaggr.synth import SynthConfig, generate

    config = SynthConfig(n_tasks=SLAB_TASKS, n_features=SLAB_FEATURES, n_train=SLAB_ROWS)
    train, _, _ = generate(config, seed)
    rng = np.random.default_rng([seed, 1])
    slabs = [train.features + rng.standard_normal(train.features.shape)
             for _ in range(SLAB_TASKS)]
    header = [f"{f}@{t}" for t in train.target_names for f in train.feature_names]
    header += list(train.target_names)
    csv = workdir / "slabs.csv"
    write_csv(csv, header, np.hstack(slabs + [train.targets]))
    argv = _aggregate_argv(csv, list(train.target_names), seed, workdir / "slabs.out",
                           ("--homogeneous", "--epsilon", "0"))
    return [Invocation("slabs", seed, argv, (csv,), workdir / "slabs.out",
                       (SLAB_TASKS, SLAB_FEATURES))]


def build_verify_quick(seed: int, workdir: Path) -> list[Invocation]:
    report = workdir / "verify.json"
    argv = ("verify", "--quick", "--seed", str(seed), "--out", str(report))
    return [Invocation("verify", seed, argv, (), report)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("reference", "aggregate",
                 "the paper's configuration on three acceptance seeds; phase II "
                 "makes most comparisons and lstsq dominates",
                 build_reference, ("lstsq",)),
        Workload("many_targets", "aggregate",
                 "1000 targets x 20 features: phase I, per-comparison overhead "
                 "and JSON output dominate; phase II barely runs",
                 build_many_targets, ("lstsq_small", "python", "json")),
        Workload("slabs", "aggregate",
                 "homogeneous variant on 100 per-task slabs: one matrix per fit, "
                 "so shared-X statistics cannot apply; CSV loading is heavy",
                 build_slabs, ("csv",)),
        Workload("verify_quick", "verify",
                 "mtaggr verify --quick, all nine checks: the only workload that "
                 "runs the Monte-Carlo oracle",
                 build_verify_quick, ("elementwise",)),
    )
}
