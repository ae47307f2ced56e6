"""Seeded synthetic benchmark generator and the parameter sweep harness.

Targets are linear combinations of all features plus correlated Gaussian
noise.  Coefficients are drawn per task from one of the configured sign
intervals, which splits the tasks into groups whose members correlate
positively with each other and negatively across groups.

Generation is bit-reproducible given (config, seed), with a fixed draw
order: coefficients, train features, train noise, test features, test noise.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import ClassVar, Sequence

import numpy as np

from . import linstats
from .aggregation import apply_partition, nonlin_ctfa
from .data import Dataset, _is_int, _is_real, _seed, center
from .errors import ValidationError
from .oracle import NoiseModel

__all__ = [
    "SynthConfig",
    "SyntheticTask",
    "TrialMetrics",
    "generate",
    "run_trial",
    "sweep",
    "SWEEP_AXES",
]

# Axis aliases accepted by sweep(); values are SynthConfig field names.
SWEEP_AXES = {
    "n_train": "n_train",
    "D": "n_features",
    "n_features": "n_features",
    "L": "n_tasks",
    "n_tasks": "n_tasks",
    "sigma": "sigma",
    "epsilon1": "epsilon1",
    "epsilon2": "epsilon2",
}


@dataclass(frozen=True)
class SynthConfig:
    """Benchmark configuration; defaults reproduce the reference setup.

    ``feature_std`` is the standard deviation of the i.i.d. normal features.
    The default of 2.0 is what makes the reference accuracy numbers land
    (single-task test R^2 near 0.48 with the default noise level).
    """

    n_tasks: int = 10
    n_features: int = 100
    n_train: int = 250
    n_test: int = 250
    sigma: float = 10.0
    feature_std: float = 2.0
    noise_correlation: np.ndarray | None = None
    coefficient_intervals: tuple[tuple[float, float], ...] = (
        (-1.0, -0.5),
        (0.5, 1.0),
    )
    group_assignment: tuple[int, ...] | None = None
    n_repeats: int = 10
    epsilon1: float = 0.0
    epsilon2: float = 1e-4

    def __post_init__(self):
        for name in ("n_tasks", "n_features", "n_train", "n_test", "n_repeats"):
            value = getattr(self, name)
            if not _is_int(value) or value < 1:
                raise ValidationError(f"{name} must be an integer >= 1, got {value!r}")
        for name in ("sigma", "feature_std", "epsilon1", "epsilon2"):
            value = getattr(self, name)
            if not _is_real(value) or np.isnan(value):
                raise ValidationError(f"{name} must be a real number, got {value!r}")
        if not 0 <= self.sigma < np.inf:
            raise ValidationError(f"sigma must be finite and nonnegative, got {self.sigma!r}")
        if not 0 < self.feature_std < np.inf:
            raise ValidationError(
                f"feature_std must be finite and positive, got {self.feature_std!r}")
        if not self.coefficient_intervals:
            raise ValidationError("need at least one coefficient interval")
        intervals = tuple(
            (float(lo), float(hi)) for lo, hi in self.coefficient_intervals
        )
        for lo, hi in intervals:
            if hi < lo:
                raise ValidationError(f"bad coefficient interval ({lo}, {hi})")
        object.__setattr__(self, "coefficient_intervals", intervals)
        if self.noise_correlation is not None:
            C = np.asarray(self.noise_correlation, dtype=float)
            # Full validation happens in NoiseModel; fail early on shape.
            if C.shape != (self.n_tasks, self.n_tasks):
                raise ValidationError(
                    f"noise_correlation must be {self.n_tasks}x{self.n_tasks}, "
                    f"got {C.shape}"
                )
            C = C.copy()
            C.setflags(write=False)
            object.__setattr__(self, "noise_correlation", C)
        if self.group_assignment is not None:
            for g in self.group_assignment:
                if not _is_int(g):
                    raise ValidationError(f"group_assignment entry {g!r} is not an integer")
            groups = tuple(int(g) for g in self.group_assignment)
            if len(groups) != self.n_tasks:
                raise ValidationError(
                    f"group_assignment must have {self.n_tasks} entries"
                )
            if any(g < 0 or g >= len(intervals) for g in groups):
                raise ValidationError("group_assignment indexes a missing interval")
            object.__setattr__(self, "group_assignment", groups)

    def groups(self) -> tuple[int, ...]:
        """Per-task interval index; tasks split evenly when not given."""
        if self.group_assignment is not None:
            return self.group_assignment
        k = len(self.coefficient_intervals)
        per, extra = divmod(self.n_tasks, k)
        sizes = [per + (1 if g < extra else 0) for g in range(k)]
        out: list[int] = []
        for g, size in enumerate(sizes):
            out.extend([g] * size)
        return tuple(out)

    def noise_model(self) -> NoiseModel:
        """Independent noise (no correlation matrix) unless one is configured."""
        return NoiseModel(np.full(self.n_tasks, self.sigma), self.noise_correlation)


@dataclass(frozen=True)
class SyntheticTask:
    """Ground truth behind a generated dataset pair.

    A split's noise is its targets minus the signal, ``Y - X @ coefficients.T``.
    """

    coefficients: np.ndarray  # (L, D)
    feature_std: float
    noise: NoiseModel  # one task per coefficient row

    def __post_init__(self):
        W = np.asarray(self.coefficients, dtype=float)
        if W.ndim == 1:
            W = W[None, :]
        if self.noise.n_tasks != W.shape[0]:
            raise ValidationError(
                f"noise model has {self.noise.n_tasks} tasks, generator has {W.shape[0]}"
            )
        W = W.copy()
        W.setflags(write=False)
        object.__setattr__(self, "coefficients", W)

    def signal(self, X, task_index: int) -> np.ndarray:
        return np.asarray(X, dtype=float) @ self.coefficients[task_index]


def generate(
    config: SynthConfig, seed: int
) -> tuple[Dataset, Dataset, SyntheticTask]:
    """Draw a (train, test) dataset pair and its ground truth."""
    rng = np.random.default_rng(_seed(seed))
    L, D = config.n_tasks, config.n_features
    groups = config.groups()
    coeffs = np.empty((L, D))
    for t in range(L):
        lo, hi = config.coefficient_intervals[groups[t]]
        coeffs[t] = rng.uniform(lo, hi, size=D)

    noise_model = config.noise_model()

    def draw_split(n: int) -> tuple[np.ndarray, np.ndarray]:
        X = rng.standard_normal((n, D)) * config.feature_std
        return X, X @ coeffs.T + noise_model.sample(n, rng)

    X_tr, Y_tr = draw_split(config.n_train)
    X_te, Y_te = draw_split(config.n_test)

    names = tuple(f"x{k}" for k in range(D)), tuple(f"y{k}" for k in range(L))
    train = Dataset(X_tr, Y_tr, feature_names=names[0], target_names=names[1])
    test = Dataset(X_te, Y_te, feature_names=names[0], target_names=names[1])
    return train, test, SyntheticTask(coeffs, config.feature_std, noise_model)


@dataclass(frozen=True)
class TrialMetrics:
    """Per-seed evaluation of single-task vs aggregated models.

    MSE and R^2 are averaged over the original tasks on the test split; the
    aggregated models are scored against each member task's own test target.
    """

    mse_single: float
    mse_phase1: float
    mse_phase12: float
    pct_phase1: float
    pct_phase12: float
    r2_single: float
    r2_phase1: float
    r2_phase12: float
    n_task_clusters: float
    mean_reduced_features: float

    METRIC_FIELDS: ClassVar[tuple[str, ...]]  # every field, in order; set below


TrialMetrics.METRIC_FIELDS = tuple(f.name for f in fields(TrialMetrics))


def _pct_change(value: float, baseline: float) -> float:
    # A (near-)zero baseline makes relative change meaningless (noiseless
    # generators); report zero instead of a floating-point explosion.
    if baseline <= 1e-12:
        return 0.0
    return 100.0 * (value - baseline) / baseline


def run_trial(config: SynthConfig, seed: int) -> TrialMetrics:
    """Generate, aggregate, and score one seed of the benchmark."""
    train_raw, test_raw, _ = generate(config, seed)
    centering = center(train_raw)
    train = centering.dataset
    test = centering.transform(test_raw)

    result = nonlin_ctfa(train, config.epsilon1, config.epsilon2, seed)

    L = train.n_tasks
    mse_single = np.empty(L)
    r2_single = np.empty(L)
    for t in range(L):
        fit = linstats.ols_fit(train.features, train.targets[:, t])
        pred = fit.predict(test.features)
        mse_single[t] = linstats.mse(pred, test.targets[:, t])
        r2_single[t] = linstats._prediction_r2(pred, test.targets[:, t])

    mse_p1 = np.empty(L)
    r2_p1 = np.empty(L)
    mse_p12 = np.empty(L)
    r2_p12 = np.empty(L)
    reduced_train = apply_partition(train, result)
    reduced_test = apply_partition(test, result)
    for ci, cluster in enumerate(result.task_partition.clusters):
        psi_train = reduced_train[ci][0]
        fit1 = linstats.ols_fit(train.features, psi_train)
        pred1 = fit1.predict(test.features)
        fit2 = linstats.ols_fit(reduced_train[ci][1], psi_train)
        pred2 = fit2.predict(reduced_test[ci][1])
        for t in cluster:
            actual = test.targets[:, t]
            mse_p1[t] = linstats.mse(pred1, actual)
            r2_p1[t] = linstats._prediction_r2(pred1, actual)
            mse_p12[t] = linstats.mse(pred2, actual)
            r2_p12[t] = linstats._prediction_r2(pred2, actual)

    m_single = float(mse_single.mean())
    m_p1 = float(mse_p1.mean())
    m_p12 = float(mse_p12.mean())
    return TrialMetrics(
        mse_single=m_single,
        mse_phase1=m_p1,
        mse_phase12=m_p12,
        pct_phase1=_pct_change(m_p1, m_single),
        pct_phase12=_pct_change(m_p12, m_single),
        r2_single=float(r2_single.mean()),
        r2_phase1=float(r2_p1.mean()),
        r2_phase12=float(r2_p12.mean()),
        n_task_clusters=float(result.task_partition.n_clusters),
        mean_reduced_features=float(
            np.mean([fp.n_clusters for fp in result.feature_partitions])
        ),
    )


@dataclass(frozen=True)
class SweepTable:
    """Long-format sweep results: one row per (axis value, metric)."""

    axis: str
    rows: tuple[dict, ...]

    def to_csv(self, path) -> None:
        lines = [f"{self.axis},metric,mean,std\n"]
        for row in self.rows:
            lines.append(
                f"{row['value']!r},{row['metric']},{row['mean']!r},{row['std']!r}\n"
            )
        Path(path).write_text("".join(lines), encoding="utf-8")


def sweep(
    base: SynthConfig,
    axis: str,
    values: Sequence,
    base_seed: int = 0,
) -> SweepTable:
    """Re-run the benchmark along one axis, averaging metrics over seeds.

    A value's rows depend only on ``base``, the value and ``base_seed``, so
    sweeps of separate values, joined in order, give the rows of one sweep.
    """
    if axis not in SWEEP_AXES:
        raise ValidationError(
            f"unknown sweep axis {axis!r}; expected one of {sorted(SWEEP_AXES)}"
        )
    field_name = SWEEP_AXES[axis]
    rows: list[dict] = []
    for value in values:
        # Text is parsed here; SynthConfig checks the type of any other value.
        if isinstance(value, str):
            try:
                value = (int if field_name.startswith("n_") else float)(value)
            except ValueError:
                raise ValidationError(f"sweep axis {axis}: bad value {value!r}") from None
        config = replace(base, **{field_name: value})
        metrics = [run_trial(config, base_seed + k) for k in range(config.n_repeats)]
        for name in TrialMetrics.METRIC_FIELDS:
            samples = np.array([getattr(m, name) for m in metrics])
            rows.append(
                {
                    "value": value,
                    "metric": name,
                    "mean": float(samples.mean()),
                    "std": float(samples.std(ddof=1)) if len(samples) > 1 else 0.0,
                }
            )
    return SweepTable(axis=axis, rows=tuple(rows))
