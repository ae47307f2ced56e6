"""Closed-form asymptotic formulas and the Monte-Carlo estimators that verify them.

The closed forms cover the asymptotic variance of a model trained on an
aggregated target (noise-mean variance times d/(n-1)), the single-task bias
(explained-variance shortfall), and the general aggregated-target bias with
its partial-covariance correction.  The Monte-Carlo side estimates the
variance / bias / noise split of the expected squared error by training many
replicate models and averaging their predictions on a fixed evaluation set.
A prediction is linear in the model's coefficients, so those averages are
taken in coefficient space, from the replicates' coefficients and the
evaluation set's Gram matrix, without a replicates x points prediction
matrix.

These estimators only run on synthetic generators: the bias terms need the
noise-free signal, which real data never exposes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .data import FeaturePartition, _cluster_means, _is_int
from .errors import ValidationError

if TYPE_CHECKING:
    from .synth import SyntheticTask

__all__ = [
    "NoiseModel",
    "BiasVarianceEstimate",
    "BiasDecomposition",
    "aggregated_noise_variance",
    "theoretical_variance",
    "theoretical_bias_single",
    "theoretical_bias_multi",
    "population_bias_decomposition",
    "monte_carlo_bias_variance",
    "coefficient_covariance_check",
    "delta_mse_check",
]


def _check_correlation(corr: np.ndarray) -> tuple[np.ndarray, bool]:
    """The correlation matrix, checked, and whether it is exactly the identity."""
    C = np.asarray(corr, dtype=float)
    if C.ndim != 2 or C.shape[0] != C.shape[1]:
        raise ValidationError(f"correlation must be square, got shape {C.shape}")
    # k nonzero entries, all of them on a unit diagonal: the identity, which
    # passes every check below, so none of them (an eigvalsh of k x k
    # above all) is run.
    if np.count_nonzero(C) == C.shape[0] and np.all(np.diagonal(C) == 1.0):
        return C, True
    if not np.allclose(C, C.T, atol=1e-12):
        raise ValidationError("correlation matrix must be symmetric")
    if not np.allclose(np.diag(C), 1.0, atol=1e-12):
        raise ValidationError("correlation matrix must have unit diagonal")
    if np.linalg.eigvalsh(C).min() < -1e-8:
        raise ValidationError("correlation matrix must be positive semidefinite")
    return C, False


@dataclass(frozen=True, init=False)
class NoiseModel:
    """Per-task noise standard deviations and their correlation matrix.

    ``NoiseModel(sigmas)``, with no correlation, is independent noise: its
    identity correlation is not stored, and ``correlation``,
    ``covariance()`` and ``restrict`` build what they return from the
    sigmas alone, so a model of many tasks holds no k x k array.

    Draws are ``z @ F.T`` for standard normal ``z`` and a factor F of the
    covariance from ``eigh``.  Independent noise of one positive sigma, the
    model of every generated dataset without a noise correlation, has the
    factor sigma * I, which ``eigh`` returns exactly; it is held as its
    diagonal, and a draw is ``z * sigmas``, the same bits as the product
    without the k x k factorization.  (A zero sigma is left to ``eigh``:
    ``z * 0`` keeps the signs of the zeros that the product drops.)
    """

    sigmas: np.ndarray
    _correlation: np.ndarray | None = field(repr=False)
    _factor: np.ndarray = field(repr=False, compare=False)

    def __init__(self, sigmas, correlation=None):
        s = np.atleast_1d(np.asarray(sigmas, dtype=float))
        if not np.all(np.isfinite(s) & (s >= 0)):
            raise ValidationError("noise standard deviations must be finite and nonnegative")
        C, identity = None, True
        if correlation is not None:
            C, identity = _check_correlation(correlation)
            if C.shape[0] != s.shape[0]:
                raise ValidationError(
                    f"{s.shape[0]} sigmas but correlation is {C.shape[0]}x{C.shape[0]}"
                )
            C = C.copy()
            C.setflags(write=False)
        s.setflags(write=False)
        object.__setattr__(self, "sigmas", s)
        object.__setattr__(self, "_correlation", C)
        if identity and np.all(s == s[:1]) and np.all(s > 0.0):
            factor = s
        else:
            vals, vecs = np.linalg.eigh(self.covariance())
            factor = vecs * np.sqrt(np.clip(vals, 0.0, None))
        object.__setattr__(self, "_factor", factor)

    @classmethod
    def independent(cls, sigma: float, k: int) -> "NoiseModel":
        return cls(np.full(k, float(sigma)))

    @classmethod
    def equicorrelated(cls, sigma: float, k: int, rho: float) -> "NoiseModel":
        C = np.full((k, k), float(rho))
        np.fill_diagonal(C, 1.0)
        return cls(np.full(k, float(sigma)), C)

    @property
    def n_tasks(self) -> int:
        return self.sigmas.shape[0]

    @property
    def correlation(self) -> np.ndarray:
        """The k x k correlation matrix, read-only; built here for independent noise."""
        if self._correlation is not None:
            return self._correlation
        C = np.eye(self.n_tasks)
        C.setflags(write=False)
        return C

    def _correlation_block(self, idx: list[int]) -> np.ndarray:
        """The correlations among the tasks ``idx``, a repeated task included."""
        if self._correlation is None:
            return np.equal.outer(idx, idx).astype(float)
        return self._correlation[np.ix_(idx, idx)]

    def covariance(self) -> np.ndarray:
        return np.outer(self.sigmas, self.sigmas) * self.correlation

    def restrict(self, indices: Sequence[int]) -> "NoiseModel":
        idx = list(indices)
        return NoiseModel(self.sigmas[idx], self._correlation_block(idx))

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw n rows of correlated Gaussian noise, one column per task.

        The covariance factor is made once when the model is built, so
        repeated draws do not refactor it.
        """
        z = rng.standard_normal((n, self.n_tasks))
        if self._factor.ndim == 1:
            return z * self._factor
        return z @ self._factor.T


def _task_indices(cluster, T: int) -> list[int]:
    """The nonempty ``cluster`` as ints, each an integer index of T tasks."""
    idx = list(cluster)
    if not idx:
        raise ValidationError("cluster must be nonempty")
    for i in idx:
        if not _is_int(i):
            raise ValidationError(f"task index {i!r} is not an integer")
        if not 0 <= i < T:
            raise ValidationError(f"task index {i} out of range [0, {T})")
    return [int(i) for i in idx]


def aggregated_noise_variance(model: NoiseModel, cluster: Sequence[int]) -> float:
    """Exact variance of the mean of the cluster's noise variables."""
    idx = _task_indices(cluster, model.n_tasks)
    s = model.sigmas[idx]
    sub = np.outer(s, s) * model._correlation_block(idx)  # the covariance's block
    k = len(idx)
    return max(0.0, float(sub.sum()) / (k * k))


def theoretical_variance(sigma_bar_sq: float, n: int, d: int) -> float:
    """Asymptotic model variance: aggregated noise variance times d / (n - 1)."""
    if n < 2:
        raise ValidationError(f"need n >= 2, got {n}")
    if d < 1:
        raise ValidationError(f"need d >= 1, got {d}")
    return sigma_bar_sq * d / (n - 1)


def theoretical_bias_single(var_f: float, r2: float) -> float:
    """Single-task asymptotic bias: signal variance times (1 - R^2)."""
    return var_f * (1.0 - r2)


@dataclass(frozen=True)
class BiasDecomposition:
    """Scalar ingredients of the aggregated-target asymptotic bias."""

    var_f_i: float
    var_psi: float
    r2_d_iota: float
    partial_cov: float
    plain_cov: float
    standard_error: float = 0.0

    @property
    def bias_value(self) -> float:
        """var_f_i - var_psi * r2_d_iota + 2 * (partial_cov - plain_cov)."""
        return (
            self.var_f_i - self.var_psi * self.r2_d_iota
            + 2.0 * (self.partial_cov - self.plain_cov)
        )


def theoretical_bias_multi(decomp: BiasDecomposition) -> float:
    """Aggregated-target asymptotic bias from its decomposition."""
    return decomp.bias_value


def _centered(a: np.ndarray) -> np.ndarray:
    return a - a.mean(axis=0)


def _draw_features(task: "SyntheticTask", n: int, rng: np.random.Generator):
    X = rng.standard_normal((n, task.coefficients.shape[1]))
    if task.feature_std != 1.0:  # x * 1.0 is x, so unit features skip the pass
        X *= task.feature_std
    return X


def _solve_or_pinv(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """gram^{-1} rhs, through the pseudo-inverse when gram is singular."""
    try:
        return np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        return np.linalg.pinv(gram) @ rhs


def _partial_cov_terms(a: np.ndarray, b: np.ndarray, phi: np.ndarray) -> tuple[float, float]:
    """(plain covariance, partial covariance given phi)."""
    n = a.shape[0]
    ac = a - a.mean()
    bc = b - b.mean()
    pc = _centered(phi)
    plain = float(ac @ bc) / (n - 1)
    cov_pp = pc.T @ pc / (n - 1)
    cov_pa = pc.T @ ac / (n - 1)
    cov_pb = pc.T @ bc / (n - 1)
    partial = plain - float(cov_pa @ _solve_or_pinv(cov_pp, cov_pb))
    return plain, partial


def _checked_indices(task: "SyntheticTask", cluster, feature_clusters, task_index):
    """Task cluster and feature partition, checked against the generator's shape."""
    T, D = task.coefficients.shape
    members = _task_indices(cluster, T)
    _task_indices([task_index], T)
    return members, FeaturePartition(feature_clusters, D).clusters


# Batches of the fresh sample whose bias values give the standard error.
_BIAS_BATCHES = 10
# The smallest budgets the estimators accept.
MIN_REPLICATES, MIN_N_EVAL, MIN_N_POP = 100, 10_000, 10_000


def population_bias_decomposition(
    task: "SyntheticTask",
    cluster: Sequence[int],
    feature_clusters,
    task_index: int,
    n_pop: int = 100_000,
    seed: int = 0,
) -> BiasDecomposition:
    """Estimate the bias decomposition on fresh generator samples.

    The aggregated target is evaluated on the noise-free signals: the noise
    contributions to the explained-variance product and to the covariance
    difference cancel exactly, so the bias value is unchanged while the
    estimate avoids extra sampling noise.  The standard error comes from
    batch means over the fresh sample.
    """
    if n_pop < MIN_N_POP:
        raise ValidationError(f"need n_pop >= {MIN_N_POP}, got {n_pop}")
    cluster, feature_clusters = _checked_indices(
        task, cluster, feature_clusters, task_index
    )
    rng = np.random.default_rng(seed)
    X = _draw_features(task, n_pop, rng)
    f_i = task.signal(X, task_index)
    psi = np.mean([task.signal(X, k) for k in cluster], axis=0)
    phi = _cluster_means(X, feature_clusters)

    def decompose(sl: slice) -> BiasDecomposition:
        fs, ps, phis = f_i[sl], psi[sl], phi[sl]
        n = fs.shape[0]
        var_f = float(np.var(fs, ddof=1))
        var_psi = float(np.var(ps, ddof=1))
        # Explained variance of psi from phi, via the population projection.
        pc = _centered(phis)
        psc = ps - ps.mean()
        fitted = pc @ _solve_or_pinv(pc.T @ pc, pc.T @ psc)
        explained = float(fitted @ fitted) / (n - 1)
        r2 = explained / var_psi if var_psi > 0 else 0.0
        plain, partial = _partial_cov_terms(ps, fs - ps, phis)
        return BiasDecomposition(var_f, var_psi, r2, partial, plain)

    full = decompose(slice(None))
    batch = n_pop // _BIAS_BATCHES
    values = [
        decompose(slice(b * batch, (b + 1) * batch)).bias_value
        for b in range(_BIAS_BATCHES)
    ]
    se = float(np.std(values, ddof=1) / np.sqrt(_BIAS_BATCHES))
    return replace(full, standard_error=se)


@dataclass(frozen=True)
class BiasVarianceEstimate:
    """Monte-Carlo estimates of the variance / bias / noise split of the MSE.

    The bias term is debiased by the replicate-mean variance; standard
    errors come from a bootstrap over replicates.  ``total_mse`` and
    ``total_se`` are ``None`` when the estimate was made with
    ``total=False``.
    """

    variance_term: float
    bias_term: float
    noise_term: float
    total_mse: float | None
    variance_se: float
    bias_se: float
    total_se: float | None
    replicates: int


def monte_carlo_bias_variance(
    task: "SyntheticTask",
    cluster: Sequence[int],
    feature_clusters,
    task_index: int,
    n_train: int,
    replicates: int,
    n_eval: int,
    *,
    seed: int = 0,
    bootstrap: int = 100,
    total: bool = True,
) -> BiasVarianceEstimate:
    """Train replicate models on fresh draws and split their error on task ``task_index``.

    Each replicate draws a fresh training set, trains the aggregated linear
    model (mean target of ``cluster`` on the ``feature_clusters`` means),
    and predicts a shared evaluation set.  The variance term averages the
    across-replicate prediction variance; the bias term compares the mean
    prediction against the true signal; the noise term is the task's own
    noise variance.  ``total_mse`` is estimated independently with fresh
    evaluation noise so the three-way closure is a real check.

    That total is the largest single draw (replicates x ``n_eval`` normals)
    and only the closure check reads it.  With ``total=False`` it is not
    drawn and ``total_mse`` and ``total_se`` are ``None``.  Every other
    field is bit-identical to ``total=True``: the evaluation noise has its
    own stream, apart from the replicate and bootstrap streams.

    Each replicate reduces its training set to the normal equations
    (phi'phi, phi'psi); one stacked ``solve`` gives every replicate's
    coefficients.  The variance and bias statistics are then taken in
    coefficient space (see :func:`_bootstrap_ses`): a prediction is linear
    in the coefficients, so no replicates x ``n_eval`` prediction matrix is
    formed except for the total.  The stacked solve needs ``n_train`` above
    the number of feature clusters and nonsingular phi'phi in every
    replicate; otherwise ``ValidationError`` is raised, as it is for an
    empty ``cluster``, an index out of range, or ``feature_clusters`` that
    is not a partition of the features.
    """
    if replicates < MIN_REPLICATES:
        raise ValidationError(f"need replicates >= {MIN_REPLICATES}, got {replicates}")
    if n_eval < MIN_N_EVAL:
        raise ValidationError(f"need n_eval >= {MIN_N_EVAL}, got {n_eval}")
    cluster, feature_clusters = _checked_indices(
        task, cluster, feature_clusters, task_index
    )
    if n_train <= len(feature_clusters):
        raise ValidationError(
            f"need n_train > {len(feature_clusters)} feature clusters, got {n_train}"
        )
    sub_noise = task.noise.restrict(cluster)
    sigma_i = float(task.noise.sigmas[task_index])
    weights = np.mean([task.coefficients[k] for k in cluster], axis=0)
    # Under the identity partition ((0,), (1,), ...) the cluster means are
    # the features themselves, so X is read as it is, not copied.
    D = task.coefficients.shape[1]
    own_features = feature_clusters == tuple((j,) for j in range(D))

    def features(X: np.ndarray) -> np.ndarray:
        return X if own_features else _cluster_means(X, feature_clusters)

    ss = np.random.SeedSequence(seed)
    eval_seed, eps_eval_seed, *rep_seeds = ss.spawn(replicates + 2)

    rng_eval = np.random.default_rng(eval_seed)
    X_eval = _draw_features(task, n_eval, rng_eval)
    f_eval = task.signal(X_eval, task_index)
    phi_eval = features(X_eval)

    # Each replicate keeps its own stream (features, then noise) and is
    # reduced to its normal equations; one stacked solve fits them all.
    # np.add.reduce(eps, axis=1) / k is eps.mean(axis=1), the same bits
    # without numpy's Python-level mean.
    L, k = len(feature_clusters), len(cluster)
    grams = np.empty((replicates, L, L))
    moments = np.empty((replicates, L))
    for r, rep_seed in enumerate(rep_seeds):
        rng = np.random.default_rng(rep_seed)
        X_tr = _draw_features(task, n_train, rng)
        eps = sub_noise.sample(n_train, rng)
        psi_tr = X_tr @ weights + np.add.reduce(eps, axis=1) / k
        phi_tr = features(X_tr)
        grams[r] = phi_tr.T @ phi_tr
        moments[r] = phi_tr.T @ psi_tr
    try:
        coefs = np.linalg.solve(grams, moments[..., None])[..., 0]
    except np.linalg.LinAlgError:
        raise ValidationError(
            "a replicate's cluster-mean features are collinear, so its "
            "least-squares fit is not unique"
        ) from None

    # The signal split as f = phi_eval b_f + r_f, r_f orthogonal to phi_eval.
    gram_eval = phi_eval.T @ phi_eval / n_eval
    b_f = _solve_or_pinv(gram_eval, phi_eval.T @ f_eval / n_eval)
    r_f = f_eval - phi_eval @ b_f
    mean_coef = coefs.mean(axis=0)
    dev = coefs - mean_coef
    # A prediction's variance over the replicates is x' S x at features x,
    # with S the coefficients' covariance; the mean prediction misses the
    # signal by phi_eval (mean_coef - b_f) - r_f.
    point_var = _forms(phi_eval, dev.T @ dev / (replicates - 1))
    variance_term = float(point_var.mean())
    point_bias = (phi_eval @ (mean_coef - b_f) - r_f) ** 2 - point_var / replicates
    bias_term = max(0.0, float(point_bias.mean()))
    noise_term = sigma_i**2

    total_mse = per_rep_total = None
    if total:
        eps_eval = np.random.default_rng(eps_eval_seed).standard_normal(
            (replicates, n_eval)
        )
        eps_eval *= sigma_i
        # ((preds - f) - eps)^2 in one buffer, in that order so the bits
        # stay those of the plain expression.
        sq_err = coefs @ phi_eval.T
        sq_err -= f_eval[None, :]
        sq_err -= eps_eval
        del eps_eval
        sq_err **= 2
        per_rep_total = sq_err.mean(axis=1)
        total_mse = float(per_rep_total.mean())
        point_total_sd = sq_err.mean(axis=0).std(ddof=1)
        del sq_err

    var_se, bias_se, total_se = _bootstrap_ses(
        dev, gram_eval, mean_coef - b_f, per_rep_total, bootstrap,
        rep_seed=ss.spawn(1)[0],
    )
    # The bootstrap resamples replicates only; fold in the independent
    # evaluation-sample error of each mean-over-x term.
    root_n = np.sqrt(n_eval)
    var_se = float(np.hypot(var_se, point_var.std(ddof=1) / root_n))
    bias_se = float(np.hypot(bias_se, point_bias.std(ddof=1) / root_n))
    if total:
        total_se = float(np.hypot(total_se, point_total_sd / root_n))

    return BiasVarianceEstimate(
        variance_term=variance_term,
        bias_term=bias_term,
        noise_term=noise_term,
        total_mse=total_mse,
        variance_se=var_se,
        bias_se=bias_se,
        total_se=total_se,
        replicates=replicates,
    )


def _forms(a: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """The quadratic form a_i' gram a_i of each row a_i."""
    return np.einsum("ij,ij->i", a @ gram, a)


def _bootstrap_ses(dev, gram, shift, per_rep_total, n_boot, rep_seed):
    """Bootstrap over replicates, in coefficient space, through multinomial counts.

    Row b of ``counts`` holds resampling weights w_b over the R replicates.
    ``dev`` holds each replicate's coefficients minus their mean c, ``gram``
    is the evaluation Gram G = phi'phi / n_eval, and the signal splits as
    f = phi b_f + r_f, r_f orthogonal to phi, with ``shift`` = c - b_f.  A
    resample's mean coefficients are c + e_b with e_b = ``counts @ dev``, so,
    as means over the evaluation points,

    * its prediction variance is (sum_r w_br dev_r' G dev_r - e_b' G e_b)
      * R/(R-1), that is sum_r w_br (dev_r - e_b)' G (dev_r - e_b) * R/(R-1);
    * its squared bias is (e_b + shift)' G (e_b + shift) + |r_f|^2 / n_eval.
      The last term is the same in every resample, so it does not move a
      standard error and is left out.

    Every form is taken on a difference from the mean coefficients or from
    b_f, never as a difference of two forms of whole predictions: where the
    model is well specified the bias is near zero while the predictions are
    not, and such a difference would leave only rounding.  The total's
    standard error is ``None`` when ``per_rep_total`` is.
    """
    if n_boot < 2:
        return 0.0, 0.0, None if per_rep_total is None else 0.0
    R = dev.shape[0]
    rng = np.random.default_rng(rep_seed)
    counts = rng.multinomial(R, np.full(R, 1.0 / R), size=n_boot) / R  # (B, R)
    e = counts @ dev
    var_terms = (counts @ _forms(dev, gram) - _forms(e, gram)) * (R / (R - 1))
    bias_terms = _forms(e + shift, gram) - var_terms / R
    total_se = None
    if per_rep_total is not None:
        total_se = float(np.std(counts @ per_rep_total, ddof=1))
    return (
        float(np.std(var_terms, ddof=1)),
        float(np.std(bias_terms, ddof=1)),
        total_se,
    )


@dataclass(frozen=True)
class CoefficientCovarianceReport:
    """Fixed-design coefficient covariance against its closed form."""

    max_rel_dev: float
    empirical: np.ndarray
    theoretical: np.ndarray
    n_compared: int
    replicates: int


def coefficient_covariance_check(
    X,
    sigma: float,
    replicates: int,
    seed: int = 0,
) -> CoefficientCovarianceReport:
    """Compare the coefficient covariance over noise redraws on a fixed design.

    The design matrix is column-centered, so the closed form
    sigma^2 / (n - 1) times the inverse sample covariance equals
    sigma^2 (X'X)^{-1} exactly.  Relative deviations are taken over entries
    whose theoretical magnitude exceeds 1e-6.  ``sigma`` must be finite and
    positive (a zero sigma leaves no entry to compare) and ``replicates`` at
    least 2 (one covariance needs two).
    """
    if not (np.isfinite(sigma) and sigma > 0):
        raise ValidationError(f"sigma must be finite and positive, got {sigma!r}")
    if replicates < 2:
        raise ValidationError(f"need replicates >= 2, got {replicates}")
    A = np.asarray(X, dtype=float)
    if A.ndim != 2:
        raise ValidationError("X must be 2-D")
    A = A - A.mean(axis=0)
    n, d = A.shape
    gram = A.T @ A
    try:
        theoretical = sigma**2 * np.linalg.inv(gram)
    except np.linalg.LinAlgError:
        raise ValidationError("X'X is singular; the closed form is undefined") from None

    rng = np.random.default_rng(seed)
    eps = rng.standard_normal((n, replicates)) * sigma
    coefs, *_ = np.linalg.lstsq(A, eps, rcond=None)  # (d, replicates)
    empirical = np.cov(coefs, ddof=1) if d > 1 else np.atleast_2d(np.var(coefs, ddof=1))

    mask = np.abs(theoretical) > 1e-6
    if not mask.any():
        max_rel = 0.0
    else:
        max_rel = float(
            np.max(np.abs(empirical[mask] - theoretical[mask]) / np.abs(theoretical[mask]))
        )
    return CoefficientCovarianceReport(
        max_rel_dev=max_rel,
        empirical=empirical,
        theoretical=theoretical,
        n_compared=int(mask.sum()),
        replicates=replicates,
    )


@dataclass(frozen=True)
class DeltaMseReport:
    """Aggregated-vs-single variance drop and bias rise against closed forms."""

    dvar_theoretical: float
    dvar_empirical: float
    dvar_se: float
    dbias_theoretical: float
    dbias_empirical: float
    dbias_se: float
    passed: bool


def delta_mse_check(
    task: "SyntheticTask",
    cluster: Sequence[int],
    task_index: int,
    n_train: int,
    replicates: int,
    n_eval: int = 10_000,
    seed: int = 0,
    n_pop: int = 100_000,
) -> DeltaMseReport:
    """Check the closed-form deltas between single-task and aggregated models."""
    D = task.coefficients.shape[1]
    identity = tuple((k,) for k in range(D))
    single = monte_carlo_bias_variance(
        task, [task_index], identity, task_index, n_train, replicates, n_eval,
        seed=seed, total=False,
    )
    agg = monte_carlo_bias_variance(
        task, cluster, identity, task_index, n_train, replicates, n_eval,
        seed=seed + 1, total=False,
    )
    sigma_i = float(task.noise.sigmas[task_index])
    sbar = aggregated_noise_variance(task.noise, cluster)
    dvar_theory = (sigma_i**2 - sbar) * D / (n_train - 1)
    dvar_emp = single.variance_term - agg.variance_term
    dvar_se = float(np.hypot(single.variance_se, agg.variance_se))

    pop_single = population_bias_decomposition(
        task, [task_index], identity, task_index, n_pop=n_pop, seed=seed + 2
    )
    pop_agg = population_bias_decomposition(
        task, cluster, identity, task_index, n_pop=n_pop, seed=seed + 2
    )
    dbias_theory = pop_agg.bias_value - pop_single.bias_value
    dbias_emp = agg.bias_term - single.bias_term
    dbias_se = float(
        np.sqrt(
            single.bias_se**2
            + agg.bias_se**2
            + pop_single.standard_error**2
            + pop_agg.standard_error**2
        )
    )

    passed = abs(dvar_emp - dvar_theory) <= 3 * max(dvar_se, 1e-12) and abs(
        dbias_emp - dbias_theory
    ) <= 3 * max(dbias_se, 1e-12)
    return DeltaMseReport(
        dvar_theory, dvar_emp, dvar_se, dbias_theory, dbias_emp, dbias_se, passed
    )
