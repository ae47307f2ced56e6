"""Ordinary least squares and the scalar statistics the threshold tests consume.

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
    "Moments",
    "ols_fit",
    "r2_score",
    "var_res",
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
# (see mtaggr.aggregation._feature_merges) gates cond(X) on it, and the
# slab fits (_gram_fit) the condition number of X with unit-norm columns.
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


class _CoreFit(NamedTuple):
    coefficients: np.ndarray
    ss_res: float
    target_variance: float  # about the sample mean, divisor n-1
    n: int
    d: int
    rank: int


def _fitted(A: np.ndarray, v: np.ndarray, coef: np.ndarray, rank: int) -> _CoreFit:
    """The fit of ``v`` on ``A`` with coefficients ``coef``; residual from the data."""
    n, d = A.shape
    resid = v - A @ coef
    dev = v - v.mean()
    ss_tot = float(dev @ dev)
    return _CoreFit(coef, float(resid @ resid), ss_tot / (n - 1), n, d, rank)


def _core_fit(X, y) -> _CoreFit:
    A = _as_matrix(X)
    v = _as_vector(y)
    n = A.shape[0]
    if v.shape[0] != n:
        raise ValidationError(f"X has {n} rows but y has {v.shape[0]} entries")
    if n < 2:
        raise ValidationError(f"need at least 2 samples, got {n}")
    coef, _, rank, _ = np.linalg.lstsq(A, v, rcond=None)
    return _fitted(A, v, coef, int(rank))


def _gram_fit(X, y) -> _CoreFit | None:
    """The fit of ``y`` on ``X`` from the normal equations, where they are accurate.

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
    cond(Xs) <= MAX_COND and cond(X) <= cond(Xs) * max_j ||x_j|| / min_j
    ||x_j|| <= MAX_LSTSQ_COND are proven.  The proof reads cond(Xs)^2 =
    cond(Gs) from the extreme eigenvalues of Gs, each widened by ``slack``:
    forming and scaling Gs moves its eigenvalues by at most about n * eps *
    trace(Gs), and ``eigvalsh`` returns them to within a small multiple of
    d * eps * ||Gs|| (LAPACK Users' Guide, sec. 4.7).  Such an X has rank d
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
    # cond(Xs) >= 1, so a spread of norms past the bound alone declines.
    if not norms.min() * MAX_LSTSQ_COND >= norms.max():
        return None
    spread = norms.max() / norms.min()
    s = 1.0 / norms
    Gs = s[:, None] * G * s
    eig = np.linalg.eigvalsh(Gs)
    slack = 2.0 * (n + d) * _EPS * d  # trace(Gs) = d
    lo, hi = eig[0] - slack, eig[-1] + slack
    if not (hi <= MAX_COND**2 * lo and hi * spread**2 <= MAX_LSTSQ_COND**2 * lo):
        return None
    return _fitted(A, v, s * np.linalg.solve(Gs, s * (A.T @ v)), d)


def ols_fit(X, y) -> OlsFit:
    """Least-squares fit of y on the columns of X, without intercept.

    Raises:
        ValidationError: on shape mismatch or n < 2.
        ZeroVarianceError: when y has zero sample variance (R^2 undefined).
    """
    core = _core_fit(X, y)
    if core.target_variance <= 0.0:
        raise ZeroVarianceError("target has zero variance; R^2 is undefined")
    residual_variance = core.ss_res / (core.n - 1)
    r2 = 1.0 - residual_variance / core.target_variance
    return OlsFit(
        coefficients=core.coefficients,
        r2=r2,
        residual_variance=residual_variance,
        mse=core.ss_res / core.n,
        n=core.n,
        d=core.d,
    )


def r2_score(X, y) -> float:
    """In-sample coefficient of determination of the OLS fit of y on X."""
    return ols_fit(X, y).r2


def var_res(X, y) -> float:
    """Sample variance (n-1 divisor) of the OLS residuals of y on X.

    Defined even for zero-variance y, where it is simply the residual
    variance of the constant target.
    """
    core = _core_fit(X, y)
    return core.ss_res / (core.n - 1)


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
    err = mse(pred, actual)
    dev = actual - actual.mean()
    denom = float(dev @ dev) / len(actual)
    return 1.0 - err / denom if denom > 0 else 0.0


def nrmse(predictions, actuals) -> float:
    """Root mean squared error normalized by the range of the actuals."""
    a = _as_vector(actuals, "actuals")
    value = mse(predictions, actuals)
    span = float(a.max() - a.min())
    if span == 0.0:
        raise ZeroVarianceError("actuals have zero range; NRMSE is undefined")
    return float(np.sqrt(value)) / span
