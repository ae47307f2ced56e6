"""Named verification checks that pit the Monte-Carlo estimators against the closed forms.

Each check builds a list of case dicts, and :func:`_summary` turns them into
a :class:`CheckResult` that reports the case with the largest margin, plus
the per-case details.  The CLI ``verify`` command runs these and fails
loudly when any check does not pass; the acceptance test suite runs the same
functions at their full budgets.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass
from operator import itemgetter
from typing import Callable, Sequence

import numpy as np

from .aggregation import compute_threshold_features, compute_threshold_targets, threshold_fit
from .data import _is_int, _seed
from .errors import ValidationError
from .linstats import _core_fit
from .oracle import (
    MIN_N_EVAL,
    MIN_N_POP,
    MIN_REPLICATES,
    NoiseModel,
    _row_blocks,
    aggregated_noise_variance,
    coefficient_covariance_check,
    delta_mse_check,
    monte_carlo_bias_variance,
    population_bias_decomposition,
    theoretical_variance,
)
from .synth import SyntheticTask

__all__ = ["CheckResult", "VerifyBudget", "CHECKS", "run_checks"]


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one verification check (worst case over its internal grid)."""

    name: str
    passed: bool
    theoretical: float
    empirical: float
    standard_error: float
    replicates: int
    details: tuple[dict, ...] = ()

    def to_dict(self) -> dict:
        return {
            "check": self.name,
            "theoretical": float(self.theoretical),
            "empirical": float(self.empirical),
            "standard_error": float(self.standard_error),
            "passed": bool(self.passed),
            "replicates": int(self.replicates),
            "details": [
                {k: v.item() if isinstance(v, np.generic) else v for k, v in d.items()}
                for d in self.details
            ],
        }


@dataclass(frozen=True)
class VerifyBudget:
    """Sampling budgets; defaults match the acceptance tolerances.

    Every budget is an integer, checked when the budget is built, so a
    budget no check can run with fails before any check runs:
    ``replicates``, ``n_eval`` and ``n_pop`` at least the estimators' own
    minima, ``bootstrap`` at least 0 (below 2 resamples it adds no error),
    ``coefficient_replicates`` at least 2 (one covariance needs two), and
    the draw and case counts at least 1 (a rate needs one draw).
    """

    replicates: int = 500
    n_eval: int = 10_000
    n_pop: int = 100_000
    draws: int = 50
    bootstrap: int = 100
    coefficient_replicates: int = 2000
    bias_generators: int = 10
    bias_partitions: int = 5

    def __post_init__(self):
        minima = {
            "replicates": MIN_REPLICATES, "n_eval": MIN_N_EVAL, "n_pop": MIN_N_POP,
            "draws": 1, "bootstrap": 0, "coefficient_replicates": 2,
            "bias_generators": 1, "bias_partitions": 1,
        }
        for name, least in minima.items():
            value = getattr(self, name)
            if not _is_int(value):
                raise ValidationError(f"budget {name} must be an integer, got {value!r}")
            if value < least:
                raise ValidationError(f"budget {name} must be >= {least}, got {value}")

    @classmethod
    def quick(cls) -> "VerifyBudget":
        return cls(
            replicates=100,
            n_eval=10_000,
            n_pop=20_000,
            draws=12,
            bootstrap=60,
            coefficient_replicates=600,
            bias_generators=2,
            bias_partitions=2,
        )


def _identity_partition(d: int) -> tuple[tuple[int, ...], ...]:
    return tuple((k,) for k in range(d))


def _random_partition(d: int, rng: np.random.Generator) -> tuple[tuple[int, ...], ...]:
    k = int(rng.integers(2, max(3, d // 2) + 1))
    labels = rng.integers(0, k, size=d)
    # Guarantee every label is used so the partition has exactly k cells.
    labels[rng.permutation(d)[:k]] = np.arange(k)
    return tuple(
        tuple(np.flatnonzero(labels == c)) for c in range(k) if np.any(labels == c)
    )


def _summary(name: str, cases: list[dict], replicates: int, margin: Callable[[dict], float],
             reported=itemgetter("theoretical", "empirical", "standard_error")) -> CheckResult:
    """One check's result from its cases: passed only when every case passed.

    It reports ``reported(case)``, (theoretical, empirical, standard error),
    of the case with the largest ``margin(case)``, the first of equal
    margins, and keeps every case as a detail.
    """
    worst = max(cases, key=margin)
    return CheckResult(
        name, all(c["passed"] for c in cases), *reported(worst), replicates, tuple(cases)
    )


def _within_three_se(theoretical: float, empirical: float, se: float, **labels) -> dict:
    """A case that passes when the two sides agree within three standard errors."""
    return {
        **labels, "theoretical": theoretical, "empirical": empirical,
        "standard_error": se, "passed": abs(empirical - theoretical) <= 3 * se,
    }


def _se_margin(case: dict) -> float:
    return abs(case["empirical"] - case["theoretical"]) / max(case["standard_error"], 1e-15)


# ---------------------------------------------------------------------------
# Individual checks
# ---------------------------------------------------------------------------


def check_noise_variance(budget: VerifyBudget, seed: int = 0) -> CheckResult:
    """Mean-noise variance closed form on equicorrelated and mixed models."""
    cases = []
    for sigma, k, rho, expected in [
        (1.0, 2, 0.0, 0.5),
        (1.0, 2, 1.0, 1.0),
        (1.0, 2, -1.0, 0.0),
        (2.0, 5, 0.5, (4.0 / 5.0) * (1 + 4 * 0.5)),
        (1.0, 5, 0.0, 0.2),
    ]:
        model = NoiseModel.equicorrelated(sigma, k, rho)
        got = aggregated_noise_variance(model, range(k))
        cases.append(
            {"sigma": sigma, "K": k, "rho": rho, "theoretical": expected,
             "empirical": got, "passed": abs(got - expected) <= 1e-10}
        )
    # Unequal sigmas against an independent elementwise double sum.
    sigmas = np.array([0.5, 1.0, 2.0])
    corr = np.array([[1.0, 0.3, 0.0], [0.3, 1.0, -0.2], [0.0, -0.2, 1.0]])
    model = NoiseModel(sigmas, corr)
    direct = sum(
        sigmas[h] * sigmas[k_] * corr[h, k_] for h in range(3) for k_ in range(3)
    ) / 9.0
    got = aggregated_noise_variance(model, [0, 1, 2])
    cases.append({"case": "mixed sigmas", "theoretical": direct, "empirical": got,
                  "passed": abs(got - direct) <= 1e-12})
    return _summary(
        "noise_variance", cases, 0,
        margin=lambda c: abs(c["empirical"] - c["theoretical"]),
        reported=lambda c: (c["theoretical"], c["empirical"], 0.0),
    )


def check_variance_formula(budget: VerifyBudget, seed: int = 0) -> CheckResult:
    """Monte-Carlo model variance against sigma_bar^2 * d / (n - 1) over a grid.

    Tolerance is 15 percent at n=200 and 5 percent at n=2000, applied to the
    deviation net of three standard errors of the estimate itself: with 500
    replicates the empirical prediction variance carries an irreducible
    sampling noise of sqrt(2/(replicates-1)) (about 6 percent for d=1), so
    the raw percentage band alone would fail at random for small d.  The
    systematic finite-sample gap the band absorbs is the Gaussian-design
    factor (n-1)/(n-d-1) (11 percent at n=200, d=20).
    """
    grid_n = ((200, 0.15), (2000, 0.05))
    grid_d = (1, 5, 20)
    grid_k = (1, 2, 5)
    grid_rho = (0.0, 0.5, 1.0)
    ss = np.random.SeedSequence(_seed(seed))
    cases = []
    for (n, tol), d, k, rho in itertools.product(grid_n, grid_d, grid_k, grid_rho):
        rng = np.random.default_rng(ss.spawn(1)[0])
        coeffs = rng.uniform(0.5, 1.0, size=(k, d))
        noise = NoiseModel.equicorrelated(1.0, k, rho)
        task = SyntheticTask(coeffs, 1.0, noise)
        est = monte_carlo_bias_variance(
            task,
            cluster=range(k),
            feature_clusters=_identity_partition(d),
            task_index=0,
            n_train=n,
            replicates=budget.replicates,
            n_eval=budget.n_eval,
            seed=int(rng.integers(2**32)),
            bootstrap=budget.bootstrap,
            total=False,
        )
        theory = theoretical_variance(aggregated_noise_variance(noise, range(k)), n, d)
        rel = abs(est.variance_term - theory) / theory
        net = max(0.0, abs(est.variance_term - theory) - 3 * est.variance_se)
        cases.append({
            "n": n, "d": d, "K": k, "rho": rho,
            "theoretical": theory, "empirical": est.variance_term,
            "standard_error": est.variance_se,
            "rel_dev": rel, "net_rel_dev": net / theory,
            "tolerance": tol, "passed": net <= tol * theory,
        })
    return _summary(
        "variance_formula", cases, budget.replicates,
        margin=lambda c: c["rel_dev"] / c["tolerance"],
    )


def _bias_case(task: SyntheticTask, cluster: list[int], partition, budget: VerifyBudget,
               rng: np.random.Generator, replicates: int, n_eval: int, **labels) -> dict:
    """Population bias of task 0 against its Monte-Carlo bias at n_train = 4000."""
    pop = population_bias_decomposition(
        task, cluster, partition, 0, n_pop=budget.n_pop, seed=int(rng.integers(2**32))
    )
    est = monte_carlo_bias_variance(
        task, cluster, partition, 0,
        n_train=4000,
        replicates=replicates,
        n_eval=n_eval,
        seed=int(rng.integers(2**32)),
        bootstrap=budget.bootstrap,
        total=False,
    )
    se = float(np.hypot(est.bias_se, pop.standard_error))
    return _within_three_se(pop.bias_value, est.bias_term, se, **labels)


def check_bias_single_task(budget: VerifyBudget, seed: int = 0) -> CheckResult:
    """Single-task bias against signal variance times the R^2 shortfall.

    Random feature partitions of a 10-feature linear generator; the
    population side is estimated on fresh samples with a batch standard
    error and the two sides must agree within three combined errors.
    """
    D = 10
    rng = np.random.default_rng(_seed(seed))
    coeffs = rng.uniform(0.5, 1.0, size=(1, D)) * rng.choice([-1.0, 1.0], size=(1, D))
    noise = NoiseModel.independent(1.0, 1)
    task = SyntheticTask(coeffs, 1.0, noise)
    cases = []
    for _ in range(budget.bias_partitions):
        partition = _random_partition(D, rng)
        cases.append(_bias_case(
            task, [0], partition, budget, rng, budget.replicates, 2 * budget.n_eval,
            partition_cells=len(partition),
        ))
    return _summary("bias_single_task", cases, budget.replicates, margin=_se_margin)


def check_bias_aggregated(budget: VerifyBudget, seed: int = 0) -> CheckResult:
    """Aggregated-target bias assembly against brute-force replicate training.

    Two-task clusters with random coefficients, noise levels, and feature
    partitions; the partial-covariance term is exercised because the reduced
    inputs do not span the signals.
    """
    D = 6
    rng = np.random.default_rng(_seed(seed))
    cases = []
    for g in range(budget.bias_generators):
        coeffs = rng.uniform(-1.0, 1.0, size=(2, D))
        sigma = float(rng.uniform(0.5, 1.5))
        rho = float(rng.choice([0.0, 0.3]))
        noise = NoiseModel.equicorrelated(sigma, 2, rho)
        task = SyntheticTask(coeffs, 1.0, noise)
        partition = _random_partition(D, rng)
        cases.append(_bias_case(
            task, [0, 1], partition, budget, rng,
            max(100, int(budget.replicates * 0.8)), budget.n_eval,
            generator=g, sigma=sigma, rho=rho, partition_cells=len(partition),
        ))
    return _summary("bias_aggregated", cases, budget.replicates, margin=_se_margin)


def check_closure(budget: VerifyBudget, seed: int = 0) -> CheckResult:
    """variance + bias + noise must equal the directly estimated total MSE."""
    rng = np.random.default_rng(_seed(seed))
    cases = []
    configs = [
        (1, 4, 0.0, 1.0),
        (2, 6, 0.5, 1.5),
        (3, 5, 0.0, 0.5),
    ]
    for k, d, rho, sigma in configs:
        coeffs = rng.uniform(-1.0, 1.0, size=(k, d))
        noise = NoiseModel.equicorrelated(sigma, k, rho)
        task = SyntheticTask(coeffs, 1.0, noise)
        partition = _random_partition(d, rng) if d > 2 else _identity_partition(d)
        est = monte_carlo_bias_variance(
            task, range(k), partition, 0,
            n_train=500,
            replicates=budget.replicates,
            n_eval=budget.n_eval,
            seed=int(rng.integers(2**32)),
            bootstrap=budget.bootstrap,
        )
        cases.append(_within_three_se(
            est.variance_term + est.bias_term + est.noise_term, est.total_mse,
            float(np.hypot(np.hypot(est.variance_se, est.bias_se), est.total_se)),
            K=k, d=d, rho=rho, sigma=sigma,
        ))
    return _summary("closure", cases, budget.replicates, margin=_se_margin)


def check_delta_mse(budget: VerifyBudget, seed: int = 0) -> CheckResult:
    """Single-vs-aggregated variance and bias deltas against their closed forms."""
    rng = np.random.default_rng(_seed(seed))
    D = 5
    n_train = 400
    shared = rng.uniform(0.5, 1.0, size=D)

    setups = [
        ("identical noise", np.stack([shared, shared + rng.uniform(-0.1, 0.1, D)]),
         NoiseModel.equicorrelated(1.0, 2, 1.0)),
        ("independent noise", np.stack([shared, shared + rng.uniform(-0.1, 0.1, D)]),
         NoiseModel.independent(1.0, 2)),
        ("identical tasks", np.stack([shared, shared]),
         NoiseModel.independent(1.0, 2)),
    ]
    cases = []
    for label, coeffs, noise in setups:
        report = delta_mse_check(
            SyntheticTask(coeffs, 1.0, noise), [0, 1], 0, n_train, budget.replicates,
            n_eval=budget.n_eval, seed=int(rng.integers(2**32)),
            n_pop=budget.n_pop,
        )
        cases.append({"case": label, **asdict(report)})
    return _summary(
        "delta_mse", cases, budget.replicates,
        margin=lambda c: abs(c["dvar_empirical"] - c["dvar_theoretical"])
        / max(c["dvar_se"], 1e-15),
        reported=itemgetter("dvar_theoretical", "dvar_empirical", "dvar_se"),
    )


def check_coefficient_covariance(budget: VerifyBudget, seed: int = 0) -> CheckResult:
    """Fixed-design coefficient covariance within 10 percent, D in {2, 5}.

    Designs carry sign-alternating correlation so every precision entry is
    large enough for a meaningful relative comparison at this replicate count.
    """
    rng = np.random.default_rng(_seed(seed))
    n = 300
    cases = []
    for d in (2, 5):
        signs = np.array([(-1.0) ** i for i in range(d)])
        precision = 0.4 * np.eye(d) + 0.6 * np.outer(signs, signs)
        cov = np.linalg.inv(precision)
        chol = np.linalg.cholesky(cov)
        X = rng.standard_normal((n, d)) @ chol.T
        report = coefficient_covariance_check(
            X, sigma=1.0, replicates=budget.coefficient_replicates,
            seed=int(rng.integers(2**32)),
        )
        cases.append({
            "d": d, "max_rel_dev": report.max_rel_dev,
            "entries_compared": report.n_compared, "passed": report.max_rel_dev <= 0.10,
        })
    return _summary(
        "coefficient_covariance", cases, budget.coefficient_replicates,
        margin=itemgetter("max_rel_dev"),
        reported=lambda c: (0.10, c["max_rel_dev"], 0.0),
    )


# Rows of the merge-guarantee checks' populations; no budget sets them.
_MERGE_POPULATION = 100_000


def _population(rng: np.random.Generator, D: int, k: int, products) -> np.ndarray:
    """The k arrays ``products(X)`` on a fresh population X, one row of the result each.

    X is _MERGE_POPULATION standard-normal rows of D columns, drawn from
    ``rng`` and multiplied a block of rows at a time (see
    :func:`~mtaggr.oracle._row_blocks`), with the bits of one draw and one
    product each, so no population of D columns is held.  ``products`` may
    change its block in place.
    """
    out = np.empty((k, _MERGE_POPULATION))
    for rows in _row_blocks(_MERGE_POPULATION, 8 * D):
        block = rng.standard_normal((rows.stop - rows.start, D))
        for row, values in zip(out, products(block)):
            row[rows] = values
    return out


def _merge_hurts(rng: np.random.Generator, D: int, k: int, sigma: float, products) -> bool:
    """Whether the merged model has worse population MSE than an unmerged one.

    ``products(X)`` gives, on a block X of the population (see
    :func:`_population`), the signal, the merged model's predictions and
    each of the k - 2 unmerged models' predictions.  Every comparison draws
    its noise, also after one has found the merge worse.
    """
    signal, merged, *unmerged = _population(rng, D, k, products)
    return any([_worsened(signal, sigma, merged, base, rng) for base in unmerged])


def _worsened(
    signal: np.ndarray,
    sigma: float,
    pred_new: np.ndarray,
    pred_base: np.ndarray,
    rng: np.random.Generator,
) -> bool:
    """Whether ``pred_new`` has worse population MSE than ``pred_base``.

    Paired comparison over fresh noise; worse means exceeding three standard
    errors of the paired gap plus a floating-point floor (identical models
    must never count as worse).  The targets and squared errors are built in
    place, with the bits of signal + eps and of (pred - y) ** 2: y - pred is
    -(pred - y) exactly, so the base error is squared in y's own buffer.
    """
    y = rng.standard_normal(signal.shape[0])
    y *= sigma
    y += signal
    diff = pred_new - y
    diff *= diff
    base = y
    base -= pred_base
    base *= base
    diff -= base
    se = float(diff.std(ddof=1) / np.sqrt(len(diff)))
    return float(diff.mean()) > 3 * se + 1e-12 * max(1.0, float(base.mean()))


def _rates(name: str, draws: int, good: int, rejected: int, rejected_key: str) -> CheckResult:
    """A merge-guarantee check passes when both of its rates reach 0.9."""
    frac_good, frac_rej = good / draws, rejected / draws
    return CheckResult(
        name, frac_good >= 0.9 and frac_rej >= 0.9, 0.9, min(frac_good, frac_rej), 0.0,
        draws, ({"no_worse_fraction": frac_good, rejected_key: frac_rej},),
    )


def _merge_columns_1_and_3(X: np.ndarray) -> np.ndarray:
    """X with columns 1 and 3 replaced by their mean, in column 1."""
    merged = np.delete(X, 3, axis=1)
    merged[:, 1] = 0.5 * (X[:, 1] + X[:, 3])
    return merged


def check_merge_guarantee_targets(budget: VerifyBudget, seed: int = 0) -> CheckResult:
    """Accepted target merges at epsilon = 0 may not hurt either member.

    Shared-signal pairs with independent noises must be accepted and leave
    both members' population MSE no worse than single-task plus three
    standard errors; orthogonal-signal pairs must be rejected.
    """
    rng = np.random.default_rng(_seed(seed))
    D, n_train, sigma = 5, 8000, 1.0
    good = 0
    rejected_orth = 0
    for _ in range(budget.draws):
        w = rng.uniform(0.5, 1.0, size=D)
        X = rng.standard_normal((n_train, D))
        e0 = rng.standard_normal(n_train) * sigma
        e1 = rng.standard_normal(n_train) * sigma
        Xc = X - X.mean(axis=0)
        f = Xc @ w
        y0 = f + e0 - (f + e0).mean()
        y1 = f + e1 - (f + e1).mean()
        (w0, w1, wag), fits = zip(*(_core_fit(Xc, y) for y in (y0, y1, 0.5 * (y0 + y1))))
        report = compute_threshold_targets(*fits, 0.0)
        ok = report.accepted
        if ok:
            ok = not _merge_hurts(rng, D, 4, sigma,
                                  lambda X: (X @ w, X @ wag, X @ w0, X @ w1))
        good += int(ok)
    for _ in range(budget.draws):
        half = D // 2
        w0 = np.zeros(D)
        w1 = np.zeros(D)
        w0[:half] = rng.uniform(0.7, 1.0, size=half)
        w1[half:] = rng.uniform(0.7, 1.0, size=D - half)
        X = rng.standard_normal((n_train, D))
        Xc = X - X.mean(axis=0)
        y0 = Xc @ w0 + rng.standard_normal(n_train) * 0.2
        y1 = Xc @ w1 + rng.standard_normal(n_train) * 0.2
        y0 -= y0.mean()
        y1 -= y1.mean()
        fits = [threshold_fit(Xc, y) for y in (y0, y1, 0.5 * (y0 + y1))]
        report = compute_threshold_targets(*fits, 0.0)
        rejected_orth += int(not report.accepted)
    return _rates("merge_guarantee_targets", budget.draws, good, rejected_orth,
                  "orthogonal_rejected_fraction")


def check_merge_guarantee_features(budget: VerifyBudget, seed: int = 0) -> CheckResult:
    """Accepted feature merges at epsilon = 0 may not hurt the population MSE.

    Only (near-)duplicate columns can be accepted at zero tolerance because
    the separated model nests the aggregated one in-sample; duplicate-signal
    draws must be accepted without loss, and the antisymmetric-signal
    counterexample (the target depends on the difference of the columns)
    must be rejected.
    """
    rng = np.random.default_rng(_seed(seed))
    D, n_train, sigma = 5, 2000, 0.5
    good = 0
    rejected_anti = 0
    for _ in range(budget.draws):
        X = rng.standard_normal((n_train, D))
        X[:, 3] = X[:, 1]
        w = rng.uniform(0.5, 1.0, size=D)
        y = X @ w + rng.standard_normal(n_train) * sigma
        Xc = X - X.mean(axis=0)
        yc = y - y.mean()
        merged = _merge_columns_1_and_3(Xc)
        (w_full, w_red), fits = zip(_core_fit(Xc, yc), _core_fit(merged, yc))
        report = compute_threshold_features(*fits, 0.0)
        ok = report.accepted
        if ok:
            def products(X):
                X[:, 3] = X[:, 1]
                return X @ w, _merge_columns_1_and_3(X) @ w_red, X @ w_full

            ok = not _merge_hurts(rng, D, 3, sigma, products)
        good += int(ok)
    for _ in range(budget.draws):
        X = rng.standard_normal((n_train, D))
        y = X[:, 1] - X[:, 3] + rng.standard_normal(n_train) * 0.1
        Xc = X - X.mean(axis=0)
        yc = y - y.mean()
        merged = _merge_columns_1_and_3(Xc)
        fits = threshold_fit(Xc, yc), threshold_fit(merged, yc)
        report = compute_threshold_features(*fits, 0.0)
        rejected_anti += int(not report.accepted)
    return _rates("merge_guarantee_features", budget.draws, good, rejected_anti,
                  "antisymmetric_rejected_fraction")


CHECKS: dict[str, Callable[[VerifyBudget, int], CheckResult]] = {
    "noise_variance": check_noise_variance,
    "variance_formula": check_variance_formula,
    "bias_single_task": check_bias_single_task,
    "bias_aggregated": check_bias_aggregated,
    "closure": check_closure,
    "delta_mse": check_delta_mse,
    "coefficient_covariance": check_coefficient_covariance,
    "merge_guarantee_targets": check_merge_guarantee_targets,
    "merge_guarantee_features": check_merge_guarantee_features,
}


def run_checks(
    names: Sequence[str] | None = None,
    budget: VerifyBudget | None = None,
    seed: int = 0,
) -> list[CheckResult]:
    """Run the named checks (all of them by default) in order; return their results."""
    budget = budget or VerifyBudget()
    selected = list(names) if names else list(CHECKS)
    unknown = [n for n in selected if n not in CHECKS]
    if unknown:
        raise ValidationError(
            f"unknown check name(s) {unknown}; expected one of {sorted(CHECKS)}"
        )
    seed = _seed(seed)
    return [CHECKS[n](budget, seed) for n in selected]
