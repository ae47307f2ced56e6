"""Ordinary least squares and the scalar statistics the threshold tests consume.

Every least-squares fit of the package is made here, and returns its
coefficients with a :class:`ThresholdFit`, the record the threshold tests
read, except one solve for many right-hand sides that no threshold test
reads: the replicates of ``oracle.coefficient_covariance_check``.  The
summary of ``mtaggr aggregate`` refits no single task: it reads the
residual sums of squares of the walk's own fits.
:func:`_factor` makes the one SVD that the walks on a shared feature
matrix read, and decides where phase II's restriction identity is allowed.

All fits are intercept-free: callers are expected to center columns first
(see :func:`mtaggr.data.center`).  Rank-deficient systems are not an error;
the solver returns the minimum-norm coefficient vector, so predictions (and
hence R^2 and residual variance) stay well defined when columns are
collinear, which happens routinely for aggregated candidates.

Variances use the n-1 divisor throughout, including residual variance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ValidationError, ZeroVarianceError

__all__ = [
    "OlsFit",
    "ThresholdFit",
    "Moments",
    "ols_fit",
    "r2_score",
    "var_res",
    "threshold_fit",
    "moments",
    "mse",
    "nrmse",
]


_EPS = float(np.finfo(float).eps)

# Tolerance within which a replayed trace scalar must match the recorded one.
REPLAY_RTOL = 1e-9
REPLAY_ATOL = 1e-12

# The largest condition number at which a fit from X'X or its inverse is
# used.  Such a form carries a relative error of order eps * cond^2 (Higham,
# *Accuracy and Stability of Numerical Algorithms*, ch. 20; Bjorck,
# *Numerical Methods for Least Squares Problems*), and the quantities it
# feeds can lie near zero, where only REPLAY_ATOL applies; so this is where
# eps * cond^2 = REPLAY_ATOL, about 67.  Phase II's restriction identity
# (see _factor) gates cond(X) on it, and the slab fits (_gram_fit) the
# condition number of X with unit-norm columns.
MAX_COND = float(np.sqrt(REPLAY_ATOL / _EPS))

# The largest cond(X) at which lstsq's own fitted values, of relative error
# of order eps * cond(X), are sure to lie within REPLAY_RTOL of the exact
# ones, about 4.5e6.  A Gram fit stands in for lstsq only below it.
MAX_LSTSQ_COND = REPLAY_RTOL / _EPS


def _as_matrix(X, name: str = "X") -> np.ndarray:
    A = np.asarray(X, dtype=float)
    if A.ndim != 2:
        raise ValidationError(f"{name} must be a 2-D matrix, got ndim={A.ndim}")
    if A.shape[1] < 1:
        raise ValidationError(f"{name} must have at least one column")
    return A


def _as_vector(y, name: str = "y") -> np.ndarray:
    v = np.asarray(y, dtype=float)
    if v.ndim != 1:
        raise ValidationError(f"{name} must be a 1-D vector, got ndim={v.ndim}")
    return v


@dataclass(frozen=True)
class OlsFit:
    """Result of an intercept-free least-squares fit.

    Attributes:
        coefficients: minimum-norm solution, one entry per input column.
        r2: in-sample coefficient of determination, in (-inf, 1].
        residual_variance: sum of squared residuals divided by n-1.
        mse: mean squared residual (divisor n).
        n: number of samples.
        d: number of input columns.
    """

    coefficients: np.ndarray
    r2: float
    residual_variance: float
    mse: float
    n: int
    d: int

    def __post_init__(self):
        coef = np.asarray(self.coefficients, dtype=float)
        coef.setflags(write=False)
        object.__setattr__(self, "coefficients", coef)

    def predict(self, X) -> np.ndarray:
        return _as_matrix(X) @ self.coefficients


# Builds a named tuple from its field values without the Python-level constructor.
_new = tuple.__new__


class _FitFields(NamedTuple):
    ss_res: float
    target_variance: float  # about the sample mean, divisor n-1
    n: int
    d: int
    rank: int
    r2: float | None
    var_res: float | None
    varf: float | None  # explained variance: target variance - var_res, floored at 0


class ThresholdFit(_FitFields):
    """What the threshold statistics need from one least-squares fit, and those statistics.

    A fit is built from its first five fields; ``d`` is the model matrix's
    column count and ``rank`` its rank, and phase I scales its thresholds by
    d / (n - 1).  The statistics are derived once, where the fit is made, so
    a threshold test reads them instead of recomputing them per comparison.
    ``_make`` takes those five values and ``_replace`` changes only them, so
    the statistics always follow from the other fields.

    The asymptotic expressions are stated in population quantities, so the
    residual variance ``var_res`` uses the degrees-of-freedom divisor
    n - rank (the unbiased noise estimate) and ``r2`` is the matching
    adjusted value.  At the sample sizes the thresholds run at (d comparable
    to n), the plain n-1 statistics are optimistic enough to invert merge
    decisions; the public r2_score / var_res operations keep the plain
    definitions.  The explained variance ``varf`` is floored at zero (a
    model that explains nothing contributes nothing).  All three are None
    for a target of zero variance, whose R^2 is undefined.
    """

    __slots__ = ()

    def __new__(cls, ss_res, target_variance, n, d, rank):
        if target_variance <= 0.0:
            return _new(cls, (ss_res, target_variance, n, d, rank, None, None, None))
        var_res = ss_res / max(n - rank, 1)
        varf = max(0.0, target_variance - var_res)
        return _new(cls, (ss_res, target_variance, n, d, rank,
                          varf / target_variance, var_res, varf))

    def __getnewargs__(self):
        return self[:5]

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def _replace(self, /, **changes):
        fit = self._make(map(changes.pop, _FitFields._fields[:5], self))
        if changes:
            raise ValueError(f"a fit sets only its first five fields, not {list(changes)}")
        return fit


def _target_variance(y: np.ndarray) -> float:
    # ``float(y.sum()) / n`` is the bits of ``y.mean()``, which sums the same
    # way and divides by n, without numpy's Python-level mean.
    n = y.shape[0]
    dev = y - float(y.sum()) / n
    return float(dev @ dev) / (n - 1)


def _fitted(A, v, coef, rank: int) -> tuple[np.ndarray, ThresholdFit]:
    """``coef`` and the fit of ``v`` on ``A`` it makes; residual from the data."""
    n, d = A.shape
    resid = v - A @ coef
    return coef, ThresholdFit(float(resid @ resid), _target_variance(v), n, d, rank)


def _core_fit(X, y) -> tuple[np.ndarray, ThresholdFit]:
    """The minimum-norm coefficients of ``y`` on ``X`` from lstsq, and their fit."""
    A = _as_matrix(X)
    v = _as_vector(y)
    n = A.shape[0]
    if v.shape[0] != n:
        raise ValidationError(f"X has {n} rows but y has {v.shape[0]} entries")
    if n < 2:
        raise ValidationError(f"need at least 2 samples, got {n}")
    coef, _, rank, _ = np.linalg.lstsq(A, v, rcond=None)
    return _fitted(A, v, coef, int(rank))


def threshold_fit(X, y) -> ThresholdFit:
    """Fit ``y`` on the columns of ``X`` with lstsq, for the threshold tests."""
    return _core_fit(X, y)[1]


def _gram_fit(X, y) -> tuple[np.ndarray, ThresholdFit] | None:
    """``y`` fitted on ``X`` from the normal equations, where they are accurate.

    The normal equations are solved with the columns scaled to unit norm,
    X = Xs S with S = diag(||x_j||): Gs c = Xs'y with Gs = Xs'Xs, and
    b = S^-1 c.  The fitted values then carry an error of order eps * cond(Xs)^2
    (Higham, *Accuracy and Stability of Numerical Algorithms*, ch. 20), and
    cond(Xs) is at most sqrt(d) times the least condition number over all
    column scalings (van der Sluis), so features in different units do not
    count against the gate.  lstsq, the reference this fit stands in for,
    works on X itself: its fitted values carry a relative error of order
    eps * cond(X), which must stay within REPLAY_RTOL for the two to agree.

    So this returns None, for the caller to fit with lstsq, unless n > d,
    cond(Xs) <= MAX_COND and cond(X) <= cond(Xs) * spread <= MAX_LSTSQ_COND
    are proven, with spread = max_j ||x_j|| / min_j ||x_j||.  Both bounds
    say lambda_min >= r * lambda_max for the exact Gs, with
    r = max(1 / MAX_COND^2, spread^2 / MAX_LSTSQ_COND^2).  The proof takes
    an upper bound h on lambda_max, and one Cholesky factorization of
    Gs - tau I with tau = r * h + slack shows lambda_min > r * h
    (Golub and Van Loan, *Matrix Computations*, sec. 4.2):

    * Forming G (error at most gamma_n |X|'|X|, Higham sec. 3.5), the norms
      and the scaling move the exact Gs, in the 1-norm and the 2-norm, by
      at most about (2n + 6) * d * eps, since |Xs|'|Xs| has trace d and
      entries at most 1.  So does the symmetric matrix B that agrees with
      the computed Gs on the triangle the factorization reads.
    * lambda_max <= ||Gs||_1 for the exact, symmetric Gs.  Where the test
      fails with that h, it is tried once more with h = ||Gs^8||_F^(1/8),
      from three d x d products: ||B^8||_F >= ||B||_2^8, and the bound is
      at most d^(1/16) * lambda_max.  Each product fl(PQ) errs by at most
      gamma_d |P||Q|, of F-norm at most gamma_d ||P||_F ||Q||_F, and
      ||B^k||_F <= sqrt(d) ||B||_2^k; so the computed power is within
      7.1 * (d + 9) * d * eps * ||B||_2^8 of B^8, and its root at least
      ||B||_2 / (1 + 2 (d + 9) * d * eps).  Either h is an upper bound on
      lambda_max once widened to h * (1 + slack) + slack.
    * If the factorization of M = fl(B - tau I) runs to completion, its
      factor satisfies L L' = M + dM with |dM| <= gamma_(d+1) |L||L'|
      (Higham, Thm 10.3, for any order of the inner products).  Then
      ||dM||_2 <= gamma_(d+1) ||L||_F^2 and ||L||_F^2 = trace(M + dM), so
      lambda_min(M) >= -gamma_(d+1) / (1 - gamma_(d+1)) * trace(M), about
      -(d + 1) * d * eps; forming M moves its diagonal by at most eps,
      since tau < B_ii.

    The terms add up to about (2n + d + 8) * d * eps, and the roundings of
    r, h and tau, each a few (n + 1) * eps on a number below 1, stay inside
    slack = 16 (n + d) * d * eps with room to spare.  Such an X has rank d
    under lstsq's cutoff, cond(X) < 1 / (eps * max(n, d)), too.  The
    residual sum of squares is taken from y - X b; by Pythagoras it exceeds
    the least one by exactly the squared error of the fitted values, so its
    error is second order in theirs.
    """
    A = _as_matrix(X)
    v = _as_vector(y)
    n, d = A.shape
    if n <= d or v.shape[0] != n:
        return None
    G = A.T @ A
    norms = np.sqrt(np.diag(G))
    low, high = norms.min(), norms.max()
    # cond(Xs) >= 1, so a spread of norms past the bound alone declines, as
    # do zero and non-finite norms, which leave Gs undefined.
    if not (0.0 < low and high < np.inf and high <= low * MAX_LSTSQ_COND):
        return None
    s = 1.0 / norms
    Gs = s[:, None] * G * s
    slack = 16.0 * (n + d) * d * _EPS
    r = max(MAX_COND**-2, (high / low / MAX_LSTSQ_COND) ** 2)
    if not (_shift_factors(Gs, r, np.abs(Gs).sum(axis=0).max(), slack)
            or _shift_factors(Gs, r, _eighth_root_of_power(Gs), slack)):
        return None
    return _fitted(A, v, s * np.linalg.solve(Gs, s * (A.T @ v)), d)


def _eighth_root_of_power(Gs: np.ndarray) -> float:
    """||Gs^8||_F^(1/8), from three products."""
    P = Gs @ Gs
    P = P @ P
    return np.linalg.norm(P @ P) ** 0.125


def _shift_factors(Gs: np.ndarray, r: float, h: float, slack: float) -> bool:
    """Whether Gs - tau I factors, for tau = r * h + slack with h widened by slack."""
    M = Gs.copy()
    M.flat[:: M.shape[0] + 1] -= r * (h * (1.0 + slack) + slack) + slack
    try:
        np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        return False
    return True


def _slab_fit(X, y) -> tuple[np.ndarray, ThresholdFit]:
    """Fit ``y`` on ``X`` from X'X where that matches lstsq, else with lstsq."""
    return _gram_fit(X, y) or _core_fit(X, y)


class _Factors(NamedTuple):
    basis: np.ndarray  # U's columns above lstsq's cutoff: the width is the rank
    W: np.ndarray | None  # V diag(1/s), where the restriction identity is allowed
    shape: tuple[int, int]  # of the factored matrix


def _factor(X: np.ndarray) -> _Factors:
    """The thin SVD of ``X`` as every walk on it reads it.

    The restriction identity works from (X'X)^-1 = W W', so its R^2 values
    carry a relative error of order eps * cond(X)^2.  Their gap can be near
    zero, where only REPLAY_ATOL applies, so W is made only when X has full
    column rank and cond(X) < MAX_COND.  Every working matrix of such an X
    (X times an averaging matrix, at most sqrt(d) times worse conditioned)
    has full column rank under lstsq's cutoff too.
    """
    U, s, Vt = np.linalg.svd(X, full_matrices=False)
    rank = int(np.count_nonzero(s > _EPS * max(X.shape) * s[0]))
    restrict = s.shape[0] == X.shape[1] and s[-1] * MAX_COND > s[0]
    return _Factors(U[:, :rank], Vt.T / s if restrict else None, X.shape)


def ols_fit(X, y) -> OlsFit:
    """Least-squares fit of y on the columns of X, without intercept.

    Raises:
        ValidationError: on shape mismatch or n < 2.
        ZeroVarianceError: when y has zero sample variance (R^2 undefined).
    """
    coef, fit = _core_fit(X, y)
    if fit.target_variance <= 0.0:
        raise ZeroVarianceError("target has zero variance; R^2 is undefined")
    residual_variance = fit.ss_res / (fit.n - 1)
    r2 = 1.0 - residual_variance / fit.target_variance
    return OlsFit(
        coefficients=coef,
        r2=r2,
        residual_variance=residual_variance,
        mse=fit.ss_res / fit.n,
        n=fit.n,
        d=fit.d,
    )


def r2_score(X, y) -> float:
    """In-sample coefficient of determination of the OLS fit of y on X."""
    return ols_fit(X, y).r2


def var_res(X, y) -> float:
    """Sample variance (n-1 divisor) of the OLS residuals of y on X.

    Defined even for zero-variance y, where it is simply the residual
    variance of the constant target.
    """
    fit = _core_fit(X, y)[1]
    return fit.ss_res / (fit.n - 1)


class Moments(NamedTuple):
    """Unbiased sample moments of a pair of vectors.

    ``correlation`` is None when either vector has zero variance.
    """

    variance_a: float
    variance_b: float
    covariance: float
    correlation: float | None


def moments(a, b) -> Moments:
    """Sample variances, covariance, and correlation (n-1 divisor)."""
    va = _as_vector(a, "a")
    vb = _as_vector(b, "b")
    if va.shape != vb.shape:
        raise ValidationError(f"length mismatch: {va.shape[0]} vs {vb.shape[0]}")
    n = va.shape[0]
    if n < 2:
        raise ValidationError(f"need at least 2 samples, got {n}")
    da = va - va.mean()
    db = vb - vb.mean()
    var_a = float(da @ da) / (n - 1)
    var_b = float(db @ db) / (n - 1)
    cov = float(da @ db) / (n - 1)
    if var_a == 0.0 or var_b == 0.0:
        corr: float | None = None
    else:
        corr = cov / np.sqrt(var_a * var_b)
        corr = float(np.clip(corr, -1.0, 1.0))
    return Moments(var_a, var_b, cov, corr)


def mse(predictions, actuals) -> float:
    """Mean squared difference between two equal-length vectors."""
    p = _as_vector(predictions, "predictions")
    a = _as_vector(actuals, "actuals")
    if p.shape != a.shape:
        raise ValidationError(f"length mismatch: {p.shape[0]} vs {a.shape[0]}")
    if p.shape[0] < 1:
        raise ValidationError("need at least one sample")
    diff = p - a
    return float(diff @ diff) / p.shape[0]


def _prediction_r2(pred: np.ndarray, actual: np.ndarray) -> float:
    """1 - MSE / variance of ``actual`` (divisor n); 0 for a constant ``actual``."""
    return _r2_of(mse(pred, actual), _spread(actual))


def _spread(actual: np.ndarray) -> float:
    """The variance of ``actual`` with divisor n, the denominator of its R^2."""
    dev = actual - actual.mean()
    return float(dev @ dev) / len(actual)


def _r2_of(err: float, spread: float) -> float:
    """1 - ``err`` / ``spread``; 0 where the spread is not positive."""
    return 1.0 - err / spread if spread > 0 else 0.0


def nrmse(predictions, actuals) -> float:
    """Root mean squared error normalized by the range of the actuals."""
    a = _as_vector(actuals, "actuals")
    value = mse(predictions, actuals)
    span = float(a.max() - a.min())
    if span == 0.0:
        raise ZeroVarianceError("actuals have zero range; NRMSE is undefined")
    return float(np.sqrt(value)) / span
