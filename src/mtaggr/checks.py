"""Named verification checks that pit the Monte-Carlo estimators against the closed forms.

Each check returns a :class:`CheckResult` summarizing the worst comparison it
made, plus per-case details.  The CLI ``verify`` command runs these and fails
loudly when any check does not pass; the acceptance test suite runs the same
functions at their full budgets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .aggregation import compute_threshold_features, compute_threshold_targets, threshold_fit
from .errors import ValidationError
from .oracle import (
    NoiseModel,
    aggregated_noise_variance,
    coefficient_covariance_check,
    delta_mse_check,
    monte_carlo_bias_variance,
    population_bias_decomposition,
    theoretical_variance,
)
from .synth import SyntheticTask

__all__ = ["CheckResult", "VerifyBudget", "CHECKS", "run_checks"]


def _json_scalar(v):
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, np.integer):
        return int(v)
    if isinstance(v, np.floating):
        return float(v)
    return v


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
                {k: _json_scalar(v) for k, v in d.items()} for d in self.details
            ],
        }


@dataclass(frozen=True)
class VerifyBudget:
    """Sampling budgets; defaults match the acceptance tolerances."""

    replicates: int = 500
    n_eval: int = 10_000
    n_pop: int = 100_000
    draws: int = 50
    bootstrap: int = 100
    coefficient_replicates: int = 2000
    bias_generators: int = 10
    bias_partitions: int = 5

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


def _make_task(
    coefficients: np.ndarray, noise: NoiseModel, feature_std: float = 1.0
) -> SyntheticTask:
    return SyntheticTask(
        coefficients=coefficients,
        noise_train=None,
        noise_test=None,
        feature_std=feature_std,
        noise=noise,
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


# ---------------------------------------------------------------------------
# Individual checks
# ---------------------------------------------------------------------------


def check_noise_variance(budget: VerifyBudget, seed: int = 0) -> CheckResult:
    """Mean-noise variance closed form on equicorrelated and mixed models."""
    details = []
    worst = (0.0, 0.0, 0.0)
    cases = [
        (1.0, 2, 0.0, 0.5),
        (1.0, 2, 1.0, 1.0),
        (1.0, 2, -1.0, 0.0),
        (2.0, 5, 0.5, (4.0 / 5.0) * (1 + 4 * 0.5)),
        (1.0, 5, 0.0, 0.2),
    ]
    passed = True
    for sigma, k, rho, expected in cases:
        model = NoiseModel.equicorrelated(sigma, k, rho)
        got = aggregated_noise_variance(model, range(k))
        ok = abs(got - expected) <= 1e-10
        passed &= ok
        if abs(got - expected) >= abs(worst[0] - worst[1]):
            worst = (expected, got, 0.0)
        details.append(
            {"sigma": sigma, "K": k, "rho": rho, "theoretical": expected,
             "empirical": got, "passed": ok}
        )
    # Unequal sigmas against an independent elementwise double sum.
    sigmas = np.array([0.5, 1.0, 2.0])
    corr = np.array([[1.0, 0.3, 0.0], [0.3, 1.0, -0.2], [0.0, -0.2, 1.0]])
    model = NoiseModel(sigmas, corr)
    direct = sum(
        sigmas[h] * sigmas[k_] * corr[h, k_] for h in range(3) for k_ in range(3)
    ) / 9.0
    got = aggregated_noise_variance(model, [0, 1, 2])
    ok = abs(got - direct) <= 1e-12
    passed &= ok
    details.append({"case": "mixed sigmas", "theoretical": direct, "empirical": got,
                    "passed": ok})
    return CheckResult("noise_variance", passed, worst[0], worst[1], 0.0, 0, tuple(details))


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
    ss = np.random.SeedSequence(seed)
    details = []
    passed = True
    worst = None
    for n, tol in grid_n:
        for d in grid_d:
            for k in grid_k:
                for rho in grid_rho:
                    child = ss.spawn(1)[0]
                    rng = np.random.default_rng(child)
                    coeffs = rng.uniform(0.5, 1.0, size=(k, d))
                    noise = NoiseModel.equicorrelated(1.0, k, rho)
                    task = _make_task(coeffs, noise)
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
                    theory = theoretical_variance(
                        aggregated_noise_variance(noise, range(k)), n, d
                    )
                    rel = abs(est.variance_term - theory) / theory
                    net = max(0.0, abs(est.variance_term - theory) - 3 * est.variance_se)
                    ok = net <= tol * theory
                    passed &= ok
                    cell = {
                        "n": n, "d": d, "K": k, "rho": rho,
                        "theoretical": theory, "empirical": est.variance_term,
                        "standard_error": est.variance_se,
                        "rel_dev": rel, "net_rel_dev": net / theory,
                        "tolerance": tol, "passed": ok,
                    }
                    details.append(cell)
                    if worst is None or rel / tol > worst["rel_dev"] / worst["tolerance"]:
                        worst = cell
    return CheckResult(
        "variance_formula", passed, worst["theoretical"], worst["empirical"],
        worst["standard_error"], budget.replicates, tuple(details),
    )


def check_bias_single_task(budget: VerifyBudget, seed: int = 0) -> CheckResult:
    """Single-task bias against signal variance times the R^2 shortfall.

    Random feature partitions of a 10-feature linear generator; the
    population side is estimated on fresh samples with a batch standard
    error and the two sides must agree within three combined errors.
    """
    D = 10
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(0.5, 1.0, size=(1, D)) * rng.choice([-1.0, 1.0], size=(1, D))
    noise = NoiseModel.independent(1.0, 1)
    task = _make_task(coeffs, noise)
    details = []
    passed = True
    worst = None
    for p in range(budget.bias_partitions):
        partition = _random_partition(D, rng)
        pop = population_bias_decomposition(
            task, [0], partition, 0, n_pop=budget.n_pop, seed=int(rng.integers(2**32))
        )
        est = monte_carlo_bias_variance(
            task, [0], partition, 0,
            n_train=4000,
            replicates=budget.replicates,
            n_eval=2 * budget.n_eval,
            seed=int(rng.integers(2**32)),
            bootstrap=budget.bootstrap,
            total=False,
        )
        se = float(np.hypot(est.bias_se, pop.standard_error))
        gap = abs(est.bias_term - pop.bias_value)
        ok = gap <= 3 * se
        passed &= ok
        case = {
            "partition_cells": len(partition),
            "theoretical": pop.bias_value, "empirical": est.bias_term,
            "standard_error": se, "passed": ok,
        }
        details.append(case)
        if worst is None or gap / max(se, 1e-15) > worst["_margin"]:
            worst = {**case, "_margin": gap / max(se, 1e-15)}
    return CheckResult(
        "bias_single_task", passed, worst["theoretical"], worst["empirical"],
        worst["standard_error"], budget.replicates, tuple(details),
    )


def check_bias_aggregated(budget: VerifyBudget, seed: int = 0) -> CheckResult:
    """Aggregated-target bias assembly against brute-force replicate training.

    Two-task clusters with random coefficients, noise levels, and feature
    partitions; the partial-covariance term is exercised because the reduced
    inputs do not span the signals.
    """
    D = 6
    rng = np.random.default_rng(seed)
    details = []
    passed = True
    worst = None
    for g in range(budget.bias_generators):
        coeffs = rng.uniform(-1.0, 1.0, size=(2, D))
        sigma = float(rng.uniform(0.5, 1.5))
        rho = float(rng.choice([0.0, 0.3]))
        noise = NoiseModel.equicorrelated(sigma, 2, rho)
        task = _make_task(coeffs, noise)
        partition = _random_partition(D, rng)
        pop = population_bias_decomposition(
            task, [0, 1], partition, 0, n_pop=budget.n_pop,
            seed=int(rng.integers(2**32)),
        )
        est = monte_carlo_bias_variance(
            task, [0, 1], partition, 0,
            n_train=4000,
            replicates=max(100, int(budget.replicates * 0.8)),
            n_eval=budget.n_eval,
            seed=int(rng.integers(2**32)),
            bootstrap=budget.bootstrap,
            total=False,
        )
        se = float(np.hypot(est.bias_se, pop.standard_error))
        gap = abs(est.bias_term - pop.bias_value)
        ok = gap <= 3 * se
        passed &= ok
        case = {
            "generator": g, "sigma": sigma, "rho": rho,
            "partition_cells": len(partition),
            "theoretical": pop.bias_value, "empirical": est.bias_term,
            "standard_error": se, "passed": ok,
        }
        details.append(case)
        if worst is None or gap / max(se, 1e-15) > worst["_margin"]:
            worst = {**case, "_margin": gap / max(se, 1e-15)}
    return CheckResult(
        "bias_aggregated", passed, worst["theoretical"], worst["empirical"],
        worst["standard_error"], budget.replicates, tuple(details),
    )


def check_closure(budget: VerifyBudget, seed: int = 0) -> CheckResult:
    """variance + bias + noise must equal the directly estimated total MSE."""
    rng = np.random.default_rng(seed)
    details = []
    passed = True
    worst = None
    configs = [
        (1, 4, 0.0, 1.0),
        (2, 6, 0.5, 1.5),
        (3, 5, 0.0, 0.5),
    ]
    for k, d, rho, sigma in configs:
        coeffs = rng.uniform(-1.0, 1.0, size=(k, d))
        noise = NoiseModel.equicorrelated(sigma, k, rho)
        task = _make_task(coeffs, noise)
        partition = _random_partition(d, rng) if d > 2 else _identity_partition(d)
        est = monte_carlo_bias_variance(
            task, range(k), partition, 0,
            n_train=500,
            replicates=budget.replicates,
            n_eval=budget.n_eval,
            seed=int(rng.integers(2**32)),
            bootstrap=budget.bootstrap,
        )
        lhs = est.variance_term + est.bias_term + est.noise_term
        se = float(np.hypot(np.hypot(est.variance_se, est.bias_se), est.total_se))
        gap = abs(est.total_mse - lhs)
        ok = gap <= 3 * se
        passed &= ok
        case = {
            "K": k, "d": d, "rho": rho, "sigma": sigma,
            "theoretical": lhs, "empirical": est.total_mse,
            "standard_error": se, "passed": ok,
        }
        details.append(case)
        if worst is None or gap / max(se, 1e-15) > worst["_margin"]:
            worst = {**case, "_margin": gap / max(se, 1e-15)}
    return CheckResult(
        "closure", passed, worst["theoretical"], worst["empirical"],
        worst["standard_error"], budget.replicates, tuple(details),
    )


def check_delta_mse(budget: VerifyBudget, seed: int = 0) -> CheckResult:
    """Single-vs-aggregated variance and bias deltas against their closed forms."""
    rng = np.random.default_rng(seed)
    D = 5
    n_train = 400
    details = []
    passed = True
    worst = None
    shared = rng.uniform(0.5, 1.0, size=D)

    cases = [
        ("identical noise", np.stack([shared, shared + rng.uniform(-0.1, 0.1, D)]),
         NoiseModel.equicorrelated(1.0, 2, 1.0)),
        ("independent noise", np.stack([shared, shared + rng.uniform(-0.1, 0.1, D)]),
         NoiseModel.independent(1.0, 2)),
        ("identical tasks", np.stack([shared, shared]),
         NoiseModel.independent(1.0, 2)),
    ]
    for label, coeffs, noise in cases:
        task = _make_task(coeffs, noise)
        report = delta_mse_check(
            task, [0, 1], 0, n_train, budget.replicates,
            n_eval=budget.n_eval, seed=int(rng.integers(2**32)),
            n_pop=budget.n_pop,
        )
        passed &= report.passed
        case = {
            "case": label,
            "dvar_theoretical": report.dvar_theoretical,
            "dvar_empirical": report.dvar_empirical,
            "dvar_se": report.dvar_se,
            "dbias_theoretical": report.dbias_theoretical,
            "dbias_empirical": report.dbias_empirical,
            "dbias_se": report.dbias_se,
            "passed": report.passed,
        }
        details.append(case)
        margin = abs(report.dvar_empirical - report.dvar_theoretical) / max(
            report.dvar_se, 1e-15
        )
        if worst is None or margin > worst["_margin"]:
            worst = {
                "theoretical": report.dvar_theoretical,
                "empirical": report.dvar_empirical,
                "standard_error": report.dvar_se,
                "_margin": margin,
            }
    return CheckResult(
        "delta_mse", passed, worst["theoretical"], worst["empirical"],
        worst["standard_error"], budget.replicates, tuple(details),
    )


def check_coefficient_covariance(budget: VerifyBudget, seed: int = 0) -> CheckResult:
    """Fixed-design coefficient covariance within 10 percent, D in {2, 5}.

    Designs carry sign-alternating correlation so every precision entry is
    large enough for a meaningful relative comparison at this replicate count.
    """
    rng = np.random.default_rng(seed)
    n = 300
    details = []
    passed = True
    worst = None
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
        ok = report.max_rel_dev <= 0.10
        passed &= ok
        case = {
            "d": d, "max_rel_dev": report.max_rel_dev,
            "entries_compared": report.n_compared, "passed": ok,
        }
        details.append(case)
        if worst is None or report.max_rel_dev > worst["_margin"]:
            worst = {
                "theoretical": 0.0,
                "empirical": report.max_rel_dev,
                "_margin": report.max_rel_dev,
            }
    return CheckResult(
        "coefficient_covariance", passed, 0.10, worst["empirical"], 0.0,
        budget.coefficient_replicates, tuple(details),
    )


def _worsened(
    X_pop: np.ndarray,
    signal: np.ndarray,
    sigma: float,
    pred_new: np.ndarray,
    pred_base: np.ndarray,
    rng: np.random.Generator,
) -> bool:
    """Whether ``pred_new`` has worse population MSE than ``pred_base``.

    Paired comparison over fresh noise; worse means exceeding three standard
    errors of the paired gap plus a floating-point floor (identical models
    must never count as worse).
    """
    eps = rng.standard_normal(X_pop.shape[0]) * sigma
    y = signal + eps
    diff = (pred_new - y) ** 2 - (pred_base - y) ** 2
    n = len(diff)
    se = float(diff.std(ddof=1) / np.sqrt(n))
    base = float(np.mean((pred_base - y) ** 2))
    return float(diff.mean()) > 3 * se + 1e-12 * max(1.0, base)


def check_merge_guarantee_targets(budget: VerifyBudget, seed: int = 0) -> CheckResult:
    """Accepted target merges at epsilon = 0 may not hurt either member.

    Shared-signal pairs with independent noises must be accepted and leave
    both members' population MSE no worse than single-task plus three
    standard errors; orthogonal-signal pairs must be rejected.
    """
    rng = np.random.default_rng(seed)
    D, n_train, sigma = 5, 8000, 1.0
    n_pop = 100_000
    good = 0
    rejected_orth = 0
    details = []
    for draw in range(budget.draws):
        w = rng.uniform(0.5, 1.0, size=D)
        X = rng.standard_normal((n_train, D))
        e0 = rng.standard_normal(n_train) * sigma
        e1 = rng.standard_normal(n_train) * sigma
        Xc = X - X.mean(axis=0)
        f = Xc @ w
        y0 = f + e0 - (f + e0).mean()
        y1 = f + e1 - (f + e1).mean()
        fits = [threshold_fit(Xc, y) for y in (y0, y1, 0.5 * (y0 + y1))]
        report = compute_threshold_targets(*fits, 0.0)
        ok = report.accepted
        if ok:
            w0, *_ = np.linalg.lstsq(Xc, y0, rcond=None)
            w1, *_ = np.linalg.lstsq(Xc, y1, rcond=None)
            wag, *_ = np.linalg.lstsq(Xc, 0.5 * (y0 + y1), rcond=None)
            X_pop = rng.standard_normal((n_pop, D))
            f_pop = X_pop @ w
            pred_ag = X_pop @ wag
            for wm in (w0, w1):
                if _worsened(X_pop, f_pop, sigma, pred_ag, X_pop @ wm, rng):
                    ok = False
        good += int(ok)
        details.append({"draw": draw, "accepted": report.accepted, "no_worse": ok})
    for draw in range(budget.draws):
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
    frac_good = good / budget.draws
    frac_rej = rejected_orth / budget.draws
    passed = frac_good >= 0.9 and frac_rej >= 0.9
    return CheckResult(
        "merge_guarantee_targets", passed, 0.9, min(frac_good, frac_rej), 0.0,
        budget.draws,
        ({"no_worse_fraction": frac_good, "orthogonal_rejected_fraction": frac_rej},),
    )


def check_merge_guarantee_features(budget: VerifyBudget, seed: int = 0) -> CheckResult:
    """Accepted feature merges at epsilon = 0 may not hurt the population MSE.

    Only (near-)duplicate columns can be accepted at zero tolerance because
    the separated model nests the aggregated one in-sample; duplicate-signal
    draws must be accepted without loss, and the antisymmetric-signal
    counterexample (the target depends on the difference of the columns)
    must be rejected.
    """
    rng = np.random.default_rng(seed)
    D, n_train, sigma = 5, 2000, 0.5
    n_pop = 100_000
    good = 0
    rejected_anti = 0
    details = []
    for draw in range(budget.draws):
        X = rng.standard_normal((n_train, D))
        X[:, 3] = X[:, 1]
        w = rng.uniform(0.5, 1.0, size=D)
        y = X @ w + rng.standard_normal(n_train) * sigma
        Xc = X - X.mean(axis=0)
        yc = y - y.mean()
        merged = np.delete(Xc, 3, axis=1)
        merged[:, 1] = 0.5 * (Xc[:, 1] + Xc[:, 3])
        fits = threshold_fit(Xc, yc), threshold_fit(merged, yc)
        report = compute_threshold_features(*fits, 0.0)
        ok = report.accepted
        if ok:
            w_full, *_ = np.linalg.lstsq(Xc, yc, rcond=None)
            w_red, *_ = np.linalg.lstsq(merged, yc, rcond=None)
            X_pop = rng.standard_normal((n_pop, D))
            X_pop[:, 3] = X_pop[:, 1]
            f_pop = X_pop @ w
            merged_pop = np.delete(X_pop, 3, axis=1)
            merged_pop[:, 1] = 0.5 * (X_pop[:, 1] + X_pop[:, 3])
            if _worsened(X_pop, f_pop, sigma, merged_pop @ w_red, X_pop @ w_full, rng):
                ok = False
        good += int(ok)
        details.append({"draw": draw, "accepted": report.accepted, "no_worse": ok})
    for draw in range(budget.draws):
        X = rng.standard_normal((n_train, D))
        y = X[:, 1] - X[:, 3] + rng.standard_normal(n_train) * 0.1
        Xc = X - X.mean(axis=0)
        yc = y - y.mean()
        merged = np.delete(Xc, 3, axis=1)
        merged[:, 1] = 0.5 * (Xc[:, 1] + Xc[:, 3])
        fits = threshold_fit(Xc, yc), threshold_fit(merged, yc)
        report = compute_threshold_features(*fits, 0.0)
        rejected_anti += int(not report.accepted)
    frac_good = good / budget.draws
    frac_rej = rejected_anti / budget.draws
    passed = frac_good >= 0.9 and frac_rej >= 0.9
    return CheckResult(
        "merge_guarantee_features", passed, 0.9, min(frac_good, frac_rej), 0.0,
        budget.draws,
        ({"no_worse_fraction": frac_good, "antisymmetric_rejected_fraction": frac_rej},),
    )


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
    jobs: int = 1,
) -> list[CheckResult]:
    """Run the named checks (all of them by default) and return their results."""
    budget = budget or VerifyBudget()
    selected = list(names) if names else list(CHECKS)
    unknown = [n for n in selected if n not in CHECKS]
    if unknown:
        raise ValidationError(
            f"unknown check name(s) {unknown}; expected one of {sorted(CHECKS)}"
        )
    if jobs < 1:
        raise ValidationError(f"need jobs >= 1, got {jobs}")
    if jobs > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(lambda n: CHECKS[n](budget, seed), selected))
    return [CHECKS[n](budget, seed) for n in selected]
