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


def _core_fit(X, y) -> _CoreFit:
    A = _as_matrix(X)
    v = _as_vector(y)
    n, d = A.shape
    if v.shape[0] != n:
        raise ValidationError(f"X has {n} rows but y has {v.shape[0]} entries")
    if n < 2:
        raise ValidationError(f"need at least 2 samples, got {n}")
    coef, _, rank, _ = np.linalg.lstsq(A, v, rcond=None)
    resid = v - A @ coef
    ss_res = float(resid @ resid)
    dev = v - v.mean()
    ss_tot = float(dev @ dev)
    return _CoreFit(coef, ss_res, ss_tot / (n - 1), n, d, int(rank))


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
