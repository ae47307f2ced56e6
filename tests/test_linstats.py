"""Least-squares statistics against hand computations and independent oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtaggr import linstats
from mtaggr.errors import ValidationError, ZeroVarianceError
from mtaggr.linstats import (
    MAX_COND,
    MAX_LSTSQ_COND,
    REPLAY_ATOL,
    REPLAY_RTOL,
    Moments,
    _core_fit,
    _factor,
    _gram_fit,
    moments,
    mse,
    nrmse,
    ols_fit,
    r2_score,
    var_res,
)


def centered(a):
    a = np.asarray(a, dtype=float)
    return a - a.mean(axis=0)


class TestOlsFit:
    def test_exact_linear_single_column(self):
        x = centered(np.arange(10.0))[:, None]
        y = 2.0 * x[:, 0]
        fit = ols_fit(x, y)
        assert abs(fit.coefficients[0] - 2.0) < 1e-10
        assert abs(fit.r2 - 1.0) < 1e-12
        assert fit.n == 10 and fit.d == 1

    def test_orthogonal_target_gives_zero_coefficients(self):
        rng = np.random.default_rng(7)
        X = centered(rng.standard_normal((50, 3)))
        y = centered(rng.standard_normal(50))
        # Explicit Gram-Schmidt against the columns, independent of the
        # solver under test; repeated sweeps handle their correlation.
        for _ in range(30):
            for k in range(3):
                col = X[:, k]
                y = y - (y @ col) / (col @ col) * col
        fit = ols_fit(X, y)
        assert np.max(np.abs(fit.coefficients)) < 1e-10
        assert abs(fit.r2) < 1e-10

    def test_normal_equation_oracle(self):
        # 5-sample, 2-feature instance solved by the explicit 2x2 inverse.
        X = centered(
            np.array([[1.0, 2.0], [2.0, 1.5], [3.0, -1.0], [4.0, 0.5], [5.0, 3.0]])
        )
        y = centered(np.array([2.0, 1.0, 4.0, 3.5, 6.0]))
        a = float(X[:, 0] @ X[:, 0])
        b = float(X[:, 0] @ X[:, 1])
        c = float(X[:, 1] @ X[:, 1])
        det = a * c - b * b
        rhs = X.T @ y
        w_oracle = np.array(
            [(c * rhs[0] - b * rhs[1]) / det, (-b * rhs[0] + a * rhs[1]) / det]
        )
        fit = ols_fit(X, y)
        np.testing.assert_allclose(fit.coefficients, w_oracle, atol=1e-9)

    def test_residuals_orthogonal_to_columns(self):
        rng = np.random.default_rng(3)
        X = centered(rng.standard_normal((40, 4)))
        y = centered(rng.standard_normal(40))
        fit = ols_fit(X, y)
        resid = y - fit.predict(X)
        for k in range(4):
            norm = np.linalg.norm(X[:, k]) * np.linalg.norm(resid)
            assert abs(resid @ X[:, k]) < 1e-8 * max(norm, 1.0)

    def test_duplicate_column_invariance(self):
        rng = np.random.default_rng(11)
        X = centered(rng.standard_normal((80, 4)))
        y = centered(rng.standard_normal(80))
        base = ols_fit(X, y)
        for k in range(4):
            dup = np.column_stack([X, X[:, k]])
            fit = ols_fit(dup, y)
            assert abs(fit.r2 - base.r2) < 1e-8
            np.testing.assert_allclose(fit.predict(dup), base.predict(X), atol=1e-8)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(5)
        X = centered(rng.standard_normal((60, 3)))
        y = centered(rng.standard_normal(60) + X @ [1.0, -2.0, 0.5])
        c = 3.7
        f1 = ols_fit(X, y)
        f2 = ols_fit(X, c * y)
        np.testing.assert_allclose(f2.coefficients, c * f1.coefficients, rtol=1e-9)
        assert abs(f2.mse - c**2 * f1.mse) < 1e-9 * (1 + f1.mse * c**2)
        assert abs(f2.r2 - f1.r2) < 1e-9

    def test_local_optimality_probe(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            X = centered(rng.standard_normal((40, 3)))
            y = centered(rng.standard_normal(40))
            fit = ols_fit(X, y)
            base = np.mean((y - fit.predict(X)) ** 2)
            for k in range(3):
                for delta in (1e-3, -1e-3):
                    w = fit.coefficients.copy()
                    w[k] += delta
                    perturbed = np.mean((y - X @ w) ** 2)
                    assert perturbed >= base - 1e-12 * (1 + base)

    def test_errors(self):
        with pytest.raises(ValidationError):
            ols_fit(np.ones((1, 2)), np.ones(1))
        with pytest.raises(ValidationError):
            ols_fit(np.ones((5, 2)), np.ones(4))
        with pytest.raises(ZeroVarianceError):
            ols_fit(centered(np.random.default_rng(0).standard_normal((5, 1))),
                    np.full(5, 2.0))


class TestR2Score:
    def test_perfect_fit(self):
        rng = np.random.default_rng(2)
        X = centered(rng.standard_normal((30, 2)))
        y = X @ [1.5, -0.5]
        assert abs(r2_score(X, y) - 1.0) < 1e-12

    def test_in_sample_optimism_matches_d_over_n_minus_1(self):
        # Independent target: E[in-sample R^2] = d / (n - 1).
        rng = np.random.default_rng(42)
        n, d, draws = 1000, 10, 200
        values = []
        for _ in range(draws):
            X = centered(rng.standard_normal((n, d)))
            y = centered(rng.standard_normal(n))
            values.append(r2_score(X, y))
        assert abs(np.mean(values) - d / (n - 1)) < 0.005

    def test_zero_variance_errors(self):
        X = centered(np.random.default_rng(0).standard_normal((6, 2)))
        with pytest.raises(ZeroVarianceError):
            r2_score(X, np.zeros(6))


class TestVarRes:
    def test_noiseless(self):
        rng = np.random.default_rng(4)
        X = centered(rng.standard_normal((25, 3)))
        y = X @ [2.0, 0.0, -1.0]
        assert var_res(X, y) < 1e-12

    def test_law_of_large_numbers(self):
        rng = np.random.default_rng(8)
        n = 10_000
        x = centered(rng.standard_normal(n))[:, None]
        y = x[:, 0] + rng.standard_normal(n) * 2.0
        y = y - y.mean()
        assert 3.6 <= var_res(x, y) <= 4.4

    def test_identity_with_r2(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            X = centered(rng.standard_normal((50, 4)))
            y = centered(X @ rng.standard_normal(4) + rng.standard_normal(50))
            dev = y - y.mean()
            var_y = float(dev @ dev) / 49
            lhs = var_res(X, y)
            rhs = var_y * (1.0 - r2_score(X, y))
            assert abs(lhs - rhs) < 1e-10 * (1 + var_y)

    def test_constant_target_is_fine(self):
        X = centered(np.random.default_rng(0).standard_normal((8, 2)))
        assert var_res(X, np.zeros(8)) == 0.0


class TestMoments:
    def test_identical_and_negated(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal(30)
        assert abs(moments(a, a).correlation - 1.0) < 1e-12
        assert abs(moments(a, -a).correlation + 1.0) < 1e-12

    def test_hand_computed_values(self):
        # a = [1,2,3,4], b = [2,4,5,7]: deviations of a are (-1.5,-.5,.5,1.5)
        # so var(a) = 5/3; the cross products sum to 8, so cov = 8/3 and
        # var(b) = 13/3, corr = 8 / sqrt(65).
        m = moments([1.0, 2.0, 3.0, 4.0], [2.0, 4.0, 5.0, 7.0])
        assert abs(m.variance_a - 5.0 / 3.0) < 1e-12
        assert abs(m.variance_b - 13.0 / 3.0) < 1e-12
        assert abs(m.covariance - 8.0 / 3.0) < 1e-12
        assert abs(m.correlation - 8.0 / math.sqrt(65.0)) < 1e-12

    def test_zero_variance_returns_partial_result(self):
        m = moments([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        assert m.variance_a == 0.0
        assert m.correlation is None
        assert abs(m.variance_b - 1.0) < 1e-12

    def test_length_errors(self):
        with pytest.raises(ValidationError):
            moments([1.0], [2.0])
        with pytest.raises(ValidationError):
            moments([1.0, 2.0], [1.0, 2.0, 3.0])


class TestMseNrmse:
    def test_identical_vectors(self):
        a = np.arange(5.0)
        assert mse(a, a) == 0.0
        assert nrmse(a, a) == 0.0

    def test_constant_offset(self):
        a = np.arange(6.0)
        for c in (0.5, -2.0):
            assert abs(mse(a + c, a) - c**2) < 1e-12

    def test_against_two_pass_summation(self):
        rng = np.random.default_rng(10)
        p = rng.standard_normal(100)
        a = rng.standard_normal(100)
        oracle = math.fsum((float(x) - float(y)) ** 2 for x, y in zip(p, a)) / 100
        assert abs(mse(p, a) - oracle) < 1e-12
        span = float(a.max() - a.min())
        assert abs(nrmse(p, a) - math.sqrt(oracle) / span) < 1e-12

    def test_zero_range_errors(self):
        with pytest.raises(ZeroVarianceError):
            nrmse(np.arange(3.0), np.ones(3))


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-50, max_value=50, allow_nan=False),
        min_size=6,
        max_size=20,
    ),
    st.integers(min_value=0, max_value=2**31),
)
def test_var_res_identity_property(values, seed):
    y = centered(np.asarray(values))
    rng = np.random.default_rng(seed)
    X = centered(rng.standard_normal((len(y), 2)))
    dev = y - y.mean()
    var_y = float(dev @ dev) / (len(y) - 1)
    if var_y == 0.0:
        assert var_res(X, y) >= 0.0
        return
    assert abs(var_res(X, y) - var_y * (1 - r2_score(X, y))) < 1e-10 * (1 + var_y)
    assert r2_score(X, y) <= 1.0


def scaled_orthonormal(cond, n=125, d=50, seed=0):
    """Orthonormal columns scaled geometrically from 1 to ``cond``, so cond(X) = cond."""
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, d)))
    return Q * np.geomspace(1.0, cond, d)


def correlated_pair(cond, n=125, d=50, seed=0):
    """Unit-norm columns, orthogonal but for one pair, so cond(X) = ``cond``.

    The pair's correlation rho gives X'X the eigenvalues 1 +- rho and 1.
    """
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, d)))
    rho = (cond**2 - 1) / (cond**2 + 1)
    Q[:, 1] = rho * Q[:, 0] + np.sqrt(1 - rho**2) * Q[:, 1]
    return Q


def slab(n=125, d=50, seed=1):
    return np.random.default_rng(seed).standard_normal((n, d))


def with_column(S, k, column):
    S = S.copy()
    S[:, k] = column
    return S


def unit_columns(X):
    return X / np.linalg.norm(X, axis=0)


# Column scales as of features in different units, spread over 10^(+-2).
UNITS = 10.0 ** np.random.default_rng(3).uniform(-2, 2, 50)


def eigvalsh_gate(X) -> bool:
    """Whether the extreme eigenvalues of the scaled X'X prove both bounds of _gram_fit.

    The gate as it was proven before the shifted Cholesky test, kept as an
    oracle: each eigenvalue is widened by the rounding of forming Gs and of
    ``eigvalsh`` (LAPACK Users' Guide, sec. 4.7).  Zero and non-finite
    column norms decline, as in _gram_fit.
    """
    n, d = X.shape
    if n <= d:
        return False
    G = X.T @ X
    norms = np.sqrt(np.diag(G))
    low, high = norms.min(), norms.max()
    if not (0.0 < low and high < np.inf and high <= low * MAX_LSTSQ_COND):
        return False
    spread = high / low
    s = 1.0 / norms
    eig = np.linalg.eigvalsh(s[:, None] * G * s)
    slack = 2.0 * (n + d) * np.finfo(float).eps * d
    lo, hi = eig[0] - slack, eig[-1] + slack
    return bool(hi <= MAX_COND**2 * lo and hi * spread**2 <= MAX_LSTSQ_COND**2 * lo)


def admitted_on_the_retry_only(n=125, d=50, seed=1):
    """Unit-norm columns scaled over a spread that only the retry's bound admits.

    The gate needs lambda_min >= r * h with r = spread^2 / MAX_LSTSQ_COND^2
    here.  The spread puts r * h at the geometric mean of its values for
    h = ||Gs||_1 and h = ||Gs^8||_F^(1/8), so the first fails and the second
    passes by the square root of their ratio, about 1.4 at d = 50.
    """
    Z = unit_columns(slab(n, d, seed))
    G = Z.T @ Z
    one = np.abs(G).sum(axis=0).max()
    eighth = np.linalg.norm(np.linalg.matrix_power(G, 8)) ** 0.125
    r = np.linalg.eigvalsh(G)[0] / np.sqrt(one * eighth)
    return Z * np.geomspace(1.0, MAX_LSTSQ_COND * np.sqrt(r), d)


# name -> (X, whether the Gram fit may be used).  The gate reads the
# condition number of X with unit-norm columns, so the cases at the bound
# correlate a pair of columns, and column scales alone do not decline a fit
# until they spread past MAX_LSTSQ_COND.
GRAM_CASES = {
    "well_conditioned": (slab(), True),
    "cond_just_below_max": (correlated_pair(MAX_COND * (1 - 1e-3)), True),
    "cond_just_above_max": (correlated_pair(MAX_COND * (1 + 1e-3)), False),
    "mixed_units": (slab() * UNITS, True),
    "mixed_units_cond_just_below_max":
        (correlated_pair(MAX_COND * (1 - 1e-3)) * UNITS, True),
    "mixed_units_cond_just_above_max":
        (correlated_pair(MAX_COND * (1 + 1e-3)) * UNITS, False),
    "column_norms_just_inside_lstsq_bound":
        (scaled_orthonormal(MAX_LSTSQ_COND * (1 - 1e-3)), True),
    "column_norms_past_lstsq_bound":
        (scaled_orthonormal(MAX_LSTSQ_COND * (1 + 1e-3)), False),
    "column_norms_admitted_on_the_retry_only": (admitted_on_the_retry_only(), True),
    "duplicate_column": (with_column(slab(), 7, slab()[:, 3]), False),
    "zero_column": (with_column(slab(), 7, 0.0), False),
    "n_equals_d": (slab(n=50), False),
    "n_below_d": (slab(n=40), False),
    "single_feature": (slab(d=1), True),
    "all_zero": (np.zeros((30, 5)), False),
}


class TestGramFit:
    @pytest.mark.parametrize("target", ["signal", "constant"])
    @pytest.mark.parametrize("case", sorted(GRAM_CASES))
    def test_matches_lstsq_where_taken_and_declines_elsewhere(self, case, target):
        X, taken = GRAM_CASES[case]
        rng = np.random.default_rng(2)
        n, d = X.shape
        if target == "constant":
            y = np.full(n, 2.5)
        else:
            signal = unit_columns(X) if np.all(X.any(axis=0)) else X
            y = signal @ rng.uniform(-1, 1, d) * np.sqrt(n) + rng.standard_normal(n)
        got = _gram_fit(X, y)
        assert (got is not None) == taken
        if got is None:
            return
        (coef, fit), (want_coef, want) = got, _core_fit(X, y)
        assert (fit.n, fit.d, fit.rank) == (want.n, want.d, want.rank)
        for got, ref in ((fit.ss_res, want.ss_res),
                         (fit.target_variance, want.target_variance)):
            assert np.isclose(got, ref, rtol=REPLAY_RTOL, atol=REPLAY_ATOL)
        # lstsq's fitted values are good to about eps * cond(X) * ||y||, so
        # they match within REPLAY_RTOL * ||y|| up to MAX_LSTSQ_COND.
        gap = np.linalg.norm(X @ coef - X @ want_coef)
        assert gap <= REPLAY_RTOL * np.linalg.norm(y)

    def test_never_admits_a_matrix_past_the_bounds(self):
        # A component shared by every column takes cond(Xs) of a 125 x 50
        # slab past MAX_COND from shared = 4 on (about 2.4 MAX_COND at 8).
        # Column scales over 10^(+-3.3) pass the column-norm spread check and
        # take cond(X) past MAX_LSTSQ_COND.  So matrices past either bound
        # reach the shifted Cholesky test, which must decline them.
        rng = np.random.default_rng(4)
        taken = 0
        past = {"cond(Xs)": 0, "cond(X)": 0}
        for shared in np.linspace(0.0, 8.0, 9):
            for a in (0.0, 2.0, 3.3):
                for n, d in ((60, 5), (125, 50)):
                    Z = rng.standard_normal((n, d))
                    Z += shared * rng.standard_normal((n, 1))
                    X = Z * 10.0 ** rng.uniform(-a, a, d)
                    y = rng.standard_normal(n)
                    norms = np.linalg.norm(X, axis=0)
                    cond_s, cond = np.linalg.cond(unit_columns(X)), np.linalg.cond(X)
                    if norms.max() <= norms.min() * MAX_LSTSQ_COND:
                        past["cond(Xs)"] += cond_s > MAX_COND
                        past["cond(X)"] += cond > MAX_LSTSQ_COND
                    if _gram_fit(X, y) is None:
                        continue
                    taken += 1
                    assert cond_s <= MAX_COND
                    assert cond <= MAX_LSTSQ_COND
        assert taken
        assert all(past.values()), past

    @pytest.mark.parametrize("case", sorted(GRAM_CASES))
    def test_the_eigenvalue_oracle_agrees_on_every_case(self, case):
        X, taken = GRAM_CASES[case]
        assert eigvalsh_gate(X) == taken

    @pytest.mark.parametrize("seed", range(5))
    def test_admits_every_slab_the_eigenvalue_oracle_admits(self, seed):
        # A component shared by every column takes cond(Xs) across MAX_COND
        # between shared = 3 and 4.  Column scales over 10^(+-a) leave Gs as
        # it is and raise r; at a = 3 they take cond(X) across MAX_LSTSQ_COND,
        # where the one-norm bound often fails and the retry decides.
        rng = np.random.default_rng([9, seed])
        admitted = 0
        for a in (0.0, 1.0, 2.0, 3.0):
            for shared in (0.0, 1.0, 3.0, 4.0):
                Z = slab(seed=seed) + shared * rng.standard_normal((125, 1))
                X = Z * 10.0 ** rng.uniform(-a, a, 50)
                if eigvalsh_gate(X):
                    admitted += 1
                    assert _gram_fit(X, rng.standard_normal(125)) is not None, (a, shared)
        assert admitted

    def test_the_retry_bound_admits_what_the_one_norm_cannot(self, monkeypatch):
        X = admitted_on_the_retry_only()
        y = np.random.default_rng(5).standard_normal(X.shape[0])
        assert _gram_fit(X, y) is not None
        monkeypatch.setattr(linstats, "_eighth_root_of_power", lambda Gs: np.inf)
        assert _gram_fit(X, y) is None


# name -> (X, whether the restriction identity may read X's factors).
FACTOR_CASES = {
    "well_conditioned": (slab(), True),
    "n_below_d": (slab(n=40), False),
    "n_equals_d": (slab(n=50), False),
    "duplicate_column": (with_column(slab(), 7, slab()[:, 3]), False),
    "zero_column": (with_column(slab(), 7, 0.0), False),
    "all_zero": (np.zeros((30, 5)), False),
    "single_feature": (slab(d=1), True),
    "cond_just_below_max": (correlated_pair(MAX_COND * (1 - 1e-3)), True),
    "cond_just_above_max": (correlated_pair(MAX_COND * (1 + 1e-3)), False),
}


class TestFactor:
    """The shared factorization's rank and gate against lstsq and np.linalg.cond."""

    @pytest.mark.parametrize("case", sorted(FACTOR_CASES))
    def test_rank_and_gate_match_the_reference(self, case):
        X, restricted = FACTOR_CASES[case]
        n, d = X.shape
        factors = _factor(X)
        rank = np.linalg.lstsq(X, np.ones(n), rcond=None)[2]
        assert factors.shape == X.shape
        assert factors.basis.shape == (n, rank)
        gate = bool(rank == d and np.linalg.cond(X) < MAX_COND)
        assert (factors.W is not None) == gate == restricted
        if rank:
            np.testing.assert_allclose(factors.basis @ (factors.basis.T @ X), X,
                                       atol=1e-12)
        if restricted:
            np.testing.assert_allclose(factors.W @ factors.W.T, np.linalg.inv(X.T @ X),
                                       rtol=1e-9, atol=1e-12)
