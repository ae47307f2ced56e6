"""Closed-form evaluators and Monte-Carlo estimators against independent oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtaggr.aggregation import REPLAY_ATOL, REPLAY_RTOL
from mtaggr.data import _cluster_means
from mtaggr import oracle
from mtaggr.errors import ValidationError
from mtaggr.oracle import (
    BiasDecomposition,
    BiasVarianceEstimate,
    NoiseModel,
    aggregated_noise_variance,
    coefficient_covariance_check,
    delta_mse_check,
    monte_carlo_bias_variance,
    population_bias_decomposition,
    theoretical_bias_multi,
    theoretical_bias_single,
    theoretical_variance,
)
from mtaggr.synth import SyntheticTask


def make_task(coefficients, noise, feature_std=1.0):
    return SyntheticTask(np.atleast_2d(coefficients), feature_std, noise)


def identity(d):
    return tuple((k,) for k in range(d))


def analytic_r2_for_partition(w, clusters):
    """Population R^2 of a linear signal on cluster-mean features.

    For independent unit-variance features the cluster means are mutually
    orthogonal, so the projection decomposes per cluster: each contributes
    (sum of member coefficients)^2 / |cluster|, normalized by |w|^2.
    """
    w = np.asarray(w, dtype=float)
    explained = sum(float(np.sum(w[list(c)])) ** 2 / len(c) for c in clusters)
    return explained / float(w @ w)


def reference_noise_sample(model, n, rng):
    """Correlated noise with the covariance factor computed inline, per draw."""
    vals, vecs = np.linalg.eigh(model.covariance())
    factor = vecs * np.sqrt(np.clip(vals, 0.0, None))
    z = rng.standard_normal((n, model.n_tasks))
    return z @ factor.T


def reference_cluster_means(matrix, clusters):
    return np.column_stack([matrix[:, list(c)].mean(axis=1) for c in clusters])


def reference_monte_carlo(task, cluster, feature_clusters, task_index, n_train,
                          replicates, n_eval, seed, bootstrap):
    """The estimator with one lstsq per replicate and a per-point bootstrap variance.

    Same streams as ``monte_carlo_bias_variance`` (evaluation set, evaluation
    noise, then features and noise per replicate); kept as the reference the
    stacked normal-equation solve is checked against.
    """
    D = task.coefficients.shape[1]
    sub_noise = task.noise.restrict(cluster)
    sigma_i = float(task.noise.sigmas[task_index])
    weights = np.mean([task.coefficients[k] for k in cluster], axis=0)
    ss = np.random.SeedSequence(seed)
    eval_seed, noise_seed, *rep_seeds = ss.spawn(replicates + 2)
    X_eval = np.random.default_rng(eval_seed).standard_normal((n_eval, D))
    X_eval = X_eval * task.feature_std
    f_eval = X_eval @ task.coefficients[task_index]
    phi_eval = reference_cluster_means(X_eval, feature_clusters)
    preds = np.empty((replicates, n_eval))
    for r in range(replicates):
        rng = np.random.default_rng(rep_seeds[r])
        X_tr = rng.standard_normal((n_train, D)) * task.feature_std
        eps = reference_noise_sample(sub_noise, n_train, rng)
        psi_tr = X_tr @ weights + eps.mean(axis=1)
        phi_tr = reference_cluster_means(X_tr, feature_clusters)
        coef, *_ = np.linalg.lstsq(phi_tr, psi_tr, rcond=None)
        preds[r] = phi_eval @ coef

    point_var = preds.var(axis=0, ddof=1)
    point_bias = (preds.mean(axis=0) - f_eval) ** 2 - point_var / replicates
    rng_noise = np.random.default_rng(noise_seed)
    eps_eval = rng_noise.standard_normal((replicates, n_eval)) * sigma_i
    sq_err = (preds - f_eval[None, :] - eps_eval) ** 2
    per_rep_total = sq_err.mean(axis=1)

    R = replicates
    rng = np.random.default_rng(ss.spawn(1)[0])
    counts = rng.multinomial(R, np.full(R, 1.0 / R), size=bootstrap) / R
    m1 = counts @ preds
    m2 = counts @ preds**2
    var_terms = ((m2 - m1**2) * (R / (R - 1))).mean(axis=1)
    bias_terms = ((m1 - f_eval[None, :]) ** 2).mean(axis=1) - var_terms / R
    total_terms = counts @ per_rep_total
    if bootstrap < 2:  # fewer than two resamples add no spread
        var_terms = bias_terms = total_terms = np.zeros(2)

    root_n = np.sqrt(n_eval)
    return BiasVarianceEstimate(
        variance_term=float(point_var.mean()),
        bias_term=max(0.0, float(point_bias.mean())),
        noise_term=sigma_i**2,
        total_mse=float(per_rep_total.mean()),
        variance_se=float(np.hypot(np.std(var_terms, ddof=1),
                                   point_var.std(ddof=1) / root_n)),
        bias_se=float(np.hypot(np.std(bias_terms, ddof=1),
                               point_bias.std(ddof=1) / root_n)),
        total_se=float(np.hypot(np.std(total_terms, ddof=1),
                                sq_err.mean(axis=0).std(ddof=1) / root_n)),
        replicates=replicates,
    )


class TestNoiseModel:
    def test_pair_cases(self):
        assert abs(aggregated_noise_variance(
            NoiseModel.equicorrelated(1.0, 2, 0.0), [0, 1]) - 0.5) < 1e-12
        assert abs(aggregated_noise_variance(
            NoiseModel.equicorrelated(1.0, 2, 1.0), [0, 1]) - 1.0) < 1e-12
        assert aggregated_noise_variance(
            NoiseModel.equicorrelated(1.0, 2, -1.0), [0, 1]) == 0.0

    def test_mixed_sigmas_against_double_sum(self):
        sigmas = np.array([0.5, 1.5, 2.0])
        corr = np.array([[1.0, 0.2, -0.1], [0.2, 1.0, 0.4], [-0.1, 0.4, 1.0]])
        model = NoiseModel(sigmas, corr)
        oracle = sum(
            sigmas[h] * sigmas[k] * corr[h, k] for h in range(3) for k in range(3)
        ) / 9.0
        assert abs(aggregated_noise_variance(model, [0, 1, 2]) - oracle) < 1e-12

    def test_subcluster(self):
        model = NoiseModel.equicorrelated(2.0, 4, 0.5)
        got = aggregated_noise_variance(model, [1, 3])
        assert abs(got - 4.0 / 2.0 * (1 + 0.5)) < 1e-12

    def test_invalid_cluster(self):
        model = NoiseModel.independent(1.0, 2)
        with pytest.raises(ValidationError):
            aggregated_noise_variance(model, [])
        with pytest.raises(ValidationError):
            aggregated_noise_variance(model, [5])
        with pytest.raises(ValidationError, match="1.7"):
            aggregated_noise_variance(model, [0, 1.7])
        assert aggregated_noise_variance(model, np.array([0, 1])) == 0.5

    def test_validation(self):
        with pytest.raises(ValidationError):
            NoiseModel(np.array([-1.0]), np.eye(1))
        with pytest.raises(ValidationError):
            NoiseModel(np.ones(2), np.array([[1.0, 0.2], [0.3, 1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sigma_rejected(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            NoiseModel(np.array([1.0, bad]), np.array([[1.0, 0.5], [0.5, 1.0]]))
        with pytest.raises(ValidationError, match="finite"):
            NoiseModel.independent(bad, 3)

    @pytest.mark.parametrize("model", [
        NoiseModel.independent(1.0, 1),
        NoiseModel.equicorrelated(1.5, 3, 0.4),
        NoiseModel.equicorrelated(2.0, 4, 1.0),  # singular covariance
        NoiseModel(np.array([0.5, 0.0, 2.0]),
                   np.array([[1.0, 0.2, -0.1], [0.2, 1.0, 0.4], [-0.1, 0.4, 1.0]])),
    ])
    def test_sample_is_bit_identical_to_inline_factor(self, model):
        for seed in range(3):
            got = model.sample(57, np.random.default_rng(seed))
            want = reference_noise_sample(model, 57, np.random.default_rng(seed))
            assert got.tobytes() == want.tobytes()
        restricted = model.restrict([model.n_tasks - 1])
        got = restricted.sample(9, np.random.default_rng(7))
        want = reference_noise_sample(restricted, 9, np.random.default_rng(7))
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("k", [1, 2, 10, 100, 1000])
    @pytest.mark.parametrize("sigma", [1.0, 2.4, 0.3, 1e-3])
    def test_scaled_identity_draws_the_bits_of_the_eigh_factor(self, k, sigma):
        model = NoiseModel.independent(sigma, k)
        assert model._factor.shape == (k,)  # no k x k factor was made
        for seed in range(2):
            got = model.sample(3, np.random.default_rng(seed))
            want = reference_noise_sample(model, 3, np.random.default_rng(seed))
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("sigmas, corr", [
        ([1.0, 2.0], np.eye(2)),
        ([0.0, 0.0], np.eye(2)),
        ([1.0, 1.0], np.array([[1.0, 0.1], [0.1, 1.0]])),
    ], ids=["unequal_sigmas", "zero_sigma", "correlated"])
    def test_other_models_keep_the_eigh_factor(self, sigmas, corr):
        model = NoiseModel(np.array(sigmas), corr)
        assert model._factor.shape == (2, 2)
        got = model.sample(5, np.random.default_rng(4))
        want = reference_noise_sample(model, 5, np.random.default_rng(4))
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("sigmas", [[1.5, 1.5, 1.5], [0.5, 0.0, 2.0]])
    def test_independent_noise_stores_no_correlation(self, sigmas):
        model = NoiseModel(np.array(sigmas))
        explicit = NoiseModel(np.array(sigmas), np.eye(3))
        assert model._correlation is None
        assert model.correlation.tobytes() == explicit.correlation.tobytes()
        assert not model.correlation.flags.writeable
        assert model.covariance().tobytes() == explicit.covariance().tobytes()
        assert model._factor.tobytes() == explicit._factor.tobytes()
        for idx in ([2, 0], [1, 1], [0, 2, 0]):
            got, want = model.restrict(idx), explicit.restrict(idx)
            assert got.correlation.tobytes() == want.correlation.tobytes()
            assert got.covariance().tobytes() == want.covariance().tobytes()
            # The old formula: the cluster's block of the full covariance.
            full = explicit.covariance()[np.ix_(idx, idx)]
            assert aggregated_noise_variance(model, idx) == max(
                0.0, float(full.sum()) / len(idx) ** 2)
        assert NoiseModel.independent(2.0, 1000)._correlation is None

    def test_sampling_matches_covariance(self):
        model = NoiseModel.equicorrelated(1.5, 3, 0.4)
        rng = np.random.default_rng(0)
        draws = model.sample(200_000, rng)
        emp = np.cov(draws.T, ddof=1)
        np.testing.assert_allclose(emp, model.covariance(), rtol=0.05, atol=0.02)


class TestClosedForms:
    def test_theoretical_variance_instances(self):
        assert abs(theoretical_variance(1.0, 101, 1) - 0.01) < 1e-15
        assert abs(theoretical_variance(4.0, 2001, 10) - 0.02) < 1e-15
        assert theoretical_variance(1.0, 101, 2) == 2 * theoretical_variance(1.0, 101, 1)
        with pytest.raises(ValidationError):
            theoretical_variance(1.0, 1, 1)

    def test_theoretical_bias_single(self):
        assert theoretical_bias_single(3.0, 1.0) == 0.0
        assert theoretical_bias_single(3.0, 0.0) == 3.0
        assert abs(theoretical_bias_single(2.0, 0.75) - 0.5) < 1e-15

    def test_bias_decomposition_identity(self):
        d = BiasDecomposition(2.0, 1.5, 0.8, 0.3, 0.1)
        assert d.bias_value == 2.0 - 1.5 * 0.8 + 2 * (0.3 - 0.1)
        assert theoretical_bias_multi(d) == d.bias_value


class TestPopulationDecomposition:
    def test_singleton_matches_analytic_closed_form(self):
        rng = np.random.default_rng(1)
        w = rng.uniform(0.5, 1.0, 6) * rng.choice([-1, 1], 6)
        task = make_task(w, NoiseModel.independent(1.0, 1))
        clusters = ((0, 1), (2, 3, 4), (5,))
        pop = population_bias_decomposition(task, [0], clusters, 0, n_pop=200_000,
                                            seed=3)
        r2 = analytic_r2_for_partition(w, clusters)
        expected = float(w @ w) * (1 - r2)
        assert abs(pop.bias_value - expected) < max(4 * pop.standard_error, 0.02)

    def test_noiseless_identity_partition_bias_zero(self):
        w = np.array([1.0, -0.5, 0.25])
        task = make_task(w, NoiseModel.independent(0.0, 1))
        pop = population_bias_decomposition(task, [0], identity(3), 0, n_pop=20_000,
                                            seed=0)
        assert abs(pop.bias_value) < 1e-10

    def test_budget_validation(self):
        task = make_task(np.ones(2), NoiseModel.independent(1.0, 1))
        with pytest.raises(ValidationError):
            population_bias_decomposition(task, [0], identity(2), 0, n_pop=100)


class TestMonteCarloBiasVariance:
    def test_noiseless_generator(self):
        w = np.array([1.0, 0.5, -0.25, 0.1])
        task = make_task(w, NoiseModel.independent(0.0, 1))
        est = monte_carlo_bias_variance(
            task, [0], identity(4), 0, n_train=200, replicates=100, n_eval=10_000,
            seed=0,
        )
        assert est.noise_term == 0.0
        assert est.variance_term < 1e-20
        assert est.bias_term < 1e-20
        assert est.total_mse < 1e-20

    def test_singleton_variance_matches_formula(self):
        rng = np.random.default_rng(2)
        w = rng.uniform(0.5, 1.0, 5)
        task = make_task(w, NoiseModel.independent(1.0, 1))
        est = monte_carlo_bias_variance(
            task, [0], identity(5), 0, n_train=200, replicates=500, n_eval=10_000,
            seed=1,
        )
        theory = theoretical_variance(1.0, 200, 5)
        assert abs(est.variance_term - theory) <= 0.10 * theory

    def test_pair_with_independent_noise_halves_variance(self):
        rng = np.random.default_rng(3)
        w = rng.uniform(0.5, 1.0, 5)
        task = make_task(np.stack([w, w]), NoiseModel.independent(1.0, 2))
        single = monte_carlo_bias_variance(
            task, [0], identity(5), 0, n_train=200, replicates=500, n_eval=10_000,
            seed=2,
        )
        pair = monte_carlo_bias_variance(
            task, [0, 1], identity(5), 0, n_train=200, replicates=500, n_eval=10_000,
            seed=3,
        )
        assert abs(pair.variance_term - 0.5 * single.variance_term) <= (
            0.15 * 0.5 * single.variance_term
        )

    def test_closure_of_decomposition(self):
        rng = np.random.default_rng(4)
        w = rng.uniform(-1.0, 1.0, (2, 5))
        task = make_task(w, NoiseModel.equicorrelated(1.0, 2, 0.3))
        est = monte_carlo_bias_variance(
            task, [0, 1], ((0, 1), (2,), (3, 4)), 0, n_train=400, replicates=300,
            n_eval=10_000, seed=4,
        )
        lhs = est.variance_term + est.bias_term + est.noise_term
        combined = np.sqrt(est.variance_se**2 + est.bias_se**2 + est.total_se**2)
        assert abs(est.total_mse - lhs) <= 3 * combined

    def test_doubling_d_doubles_variance(self):
        rng = np.random.default_rng(5)
        w = rng.uniform(0.5, 1.0, 10)
        task = make_task(w, NoiseModel.independent(1.0, 1))
        est5 = monte_carlo_bias_variance(
            task, [0], identity(10)[:5] + ((5, 6, 7, 8, 9),), 0,
            n_train=500, replicates=400, n_eval=10_000, seed=6,
        )
        # d = 6 above vs d = 3 below (fixed sigma-bar and n).
        est3 = monte_carlo_bias_variance(
            task, [0], ((0, 1), (2, 3, 4), (5, 6, 7, 8, 9)), 0,
            n_train=500, replicates=400, n_eval=10_000, seed=7,
        )
        ratio = est5.variance_term / est3.variance_term
        assert abs(ratio - 2.0) <= 0.3

    def test_aggregated_bias_matches_population_assembly(self):
        rng = np.random.default_rng(6)
        w = rng.uniform(-1.0, 1.0, (2, 6))
        task = make_task(w, NoiseModel.equicorrelated(0.8, 2, 0.0))
        partition = ((0, 3), (1, 2), (4, 5))
        pop = population_bias_decomposition(task, [0, 1], partition, 0,
                                            n_pop=100_000, seed=8)
        est = monte_carlo_bias_variance(
            task, [0, 1], partition, 0, n_train=4000, replicates=300,
            n_eval=10_000, seed=9,
        )
        combined = np.hypot(est.bias_se, pop.standard_error)
        assert abs(est.bias_term - pop.bias_value) <= 3 * combined

    def test_budget_validation(self):
        task = make_task(np.ones(2), NoiseModel.independent(1.0, 1))
        with pytest.raises(ValidationError):
            monte_carlo_bias_variance(task, [0], identity(2), 0, 100, 50, 10_000)
        with pytest.raises(ValidationError):
            monte_carlo_bias_variance(task, [0], identity(2), 0, 100, 100, 100)

    def test_options_after_n_eval_are_keyword_only(self):
        task = make_task(np.ones(3), NoiseModel.independent(1.0, 1))
        with pytest.raises(TypeError):
            monte_carlo_bias_variance(task, [0], identity(3), 0, 100, 100, 10_000, 0)


def partition_from_labels(labels):
    """Clusters of equal labels, in order of first appearance."""
    groups = {}
    for i, label in enumerate(labels):
        groups.setdefault(label, []).append(i)
    return tuple(tuple(g) for g in groups.values())


NON_TOTAL_FIELDS = ("variance_term", "bias_term", "noise_term", "variance_se",
                    "bias_se", "replicates")
TOTAL_FIELDS = ("total_mse", "total_se")


def assert_matches_reference(task, cluster, partition, task_index, n_train, seed,
                             bootstrap, total):
    """The estimator against ``reference_monte_carlo`` within the replay tolerance."""
    args = (task, cluster, partition, task_index, n_train, 100, 10_000)
    got = monte_carlo_bias_variance(*args, seed=seed, bootstrap=bootstrap, total=total)
    want = reference_monte_carlo(*args, seed=seed, bootstrap=bootstrap)
    assert got.replicates == want.replicates
    names = NON_TOTAL_FIELDS
    if total:
        names += TOTAL_FIELDS
    else:
        assert got.total_mse is None and got.total_se is None
    for name in names:
        a, b = getattr(got, name), getattr(want, name)
        assert np.isclose(a, b, rtol=REPLAY_RTOL, atol=REPLAY_ATOL), (name, a, b)
    return got


class TestStackedSolve:
    """The stacked solve and coefficient-space statistics against the lstsq reference."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        k=st.integers(1, 3),
        extra_tasks=st.integers(0, 1),
        rho=st.sampled_from([0.0, 0.5, 1.0]),
        sigma=st.sampled_from([0.0, 0.5, 2.0]),
        feature_std=st.sampled_from([1.0, 3.0]),
        labels=st.lists(st.integers(0, 3), min_size=1, max_size=7),
        kind=st.sampled_from(["labels", "identity", "permuted"]),
        bootstrap=st.sampled_from([0, 1, 2, 20]),
        total=st.booleans(),
        data=st.data(),
    )
    def test_matches_lstsq_reference(
        self, k, extra_tasks, rho, sigma, feature_std, labels, kind, bootstrap, total,
        data,
    ):
        D = len(labels)
        partition = {
            "labels": partition_from_labels(labels),
            "identity": identity(D),
            "permuted": tuple((j,) for j in np.random.default_rng(D).permutation(D)),
        }[kind]
        n_train = data.draw(st.integers(len(partition) + 2, 500), label="n_train")
        seed = data.draw(st.integers(0, 2**16), label="seed")
        T = k + extra_tasks
        rng = np.random.default_rng(seed)
        coefficients = rng.uniform(-1.0, 1.0, (T, D))
        task = make_task(coefficients, NoiseModel.equicorrelated(sigma, T, rho),
                         feature_std)
        assert_matches_reference(task, list(range(extra_tasks, T)), partition,
                                 int(rng.integers(T)), n_train, seed, bootstrap, total)

    CASES = {
        # A permuted identity is not read as the features themselves.
        "permuted_identity": (np.array([[0.7, -0.2, 0.4, 1.1], [0.3, 0.9, -0.5, 0.2]]),
                              NoiseModel.equicorrelated(1.0, 2, 0.3), [0, 1],
                              ((2,), (0,), (3,), (1,)), 1.0),
        "single_feature": (np.array([[0.8], [-0.4]]),
                           NoiseModel.independent(0.5, 2), [0, 1], ((0,),), 2.0),
        # Well specified and noiseless: bias and variance are rounding only.
        "sigma0_identity_one_task": (np.array([[1.0, -0.5, 0.25]]),
                                     NoiseModel.independent(0.0, 1), [0],
                                     identity(3), 1.0),
    }

    @pytest.mark.parametrize("total", [False, True])
    @pytest.mark.parametrize("bootstrap", [0, 1, 2])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_edge_cases_match_reference(self, case, bootstrap, total):
        coefficients, noise, cluster, partition, feature_std = self.CASES[case]
        task = make_task(coefficients, noise, feature_std)
        got = assert_matches_reference(task, cluster, partition, 0, 50, 5, bootstrap,
                                       total)
        if case.startswith("sigma0"):
            assert got.bias_term < 1e-20 and got.variance_term < 1e-20

    @pytest.mark.parametrize("replicates", [100, 137])
    def test_one_noise_draw_per_replicate(self, monkeypatch, replicates):
        sample, sizes = NoiseModel.sample, []

        def counted(model, n, rng):
            sizes.append(n)
            return sample(model, n, rng)

        monkeypatch.setattr(NoiseModel, "sample", counted)
        task = make_task(np.ones((2, 3)), NoiseModel.equicorrelated(1.0, 2, 0.5))
        for total in (False, True):
            sizes.clear()
            monte_carlo_bias_variance(task, [0, 1], ((0, 2), (1,)), 0, 40, replicates,
                                      10_000, seed=1, bootstrap=2, total=total)
            assert sizes == [40] * replicates

    @pytest.mark.parametrize("clusters", [
        ((0,), (1,), (2,), (3,), (4,)),
        ((3,), (0, 2), (4,), (1,)),
        ((1, 4), (0, 2, 3)),
        ((3,), (0,), (4,), (1,), (2,)),
    ])
    def test_cluster_means_bit_identical_to_row_means(self, clusters):
        rng = np.random.default_rng(0)
        matrix = rng.standard_normal((40, 5))
        matrix[::3] = -0.0
        matrix[1::7, 3] = 0.0
        matrix[2, 1] = np.inf
        got = _cluster_means(matrix, clusters)
        want = reference_cluster_means(matrix, clusters)
        assert np.signbit(matrix[0]).all()
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def previous_bootstrap_ses(preds, f_eval, per_rep_total, n_boot, rep_seed):
    """The bootstrap over the replicates x n_eval prediction matrix."""
    R = preds.shape[0]
    rng = np.random.default_rng(rep_seed)
    counts = rng.multinomial(R, np.full(R, 1.0 / R), size=n_boot) / R
    m1 = counts @ preds
    m2 = counts @ (preds**2).mean(axis=1)
    var_terms = (m2 - (m1**2).mean(axis=1)) * (R / (R - 1))
    bias_terms = ((m1 - f_eval[None, :]) ** 2).mean(axis=1) - var_terms / R
    total_terms = counts @ per_rep_total
    return (
        float(np.std(var_terms, ddof=1)),
        float(np.std(bias_terms, ddof=1)),
        float(np.std(total_terms, ddof=1)),
    )


class TestTotalOptional:
    """``total=False`` skips the total estimate and leaves every other field alone."""

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        k=st.integers(1, 3),
        mixed=st.booleans(),
        D=st.integers(2, 6),
        data=st.data(),
    )
    def test_other_fields_bit_identical(self, k, mixed, D, data):
        partition = identity(D)
        if mixed:
            labels = data.draw(st.lists(st.integers(0, 2), min_size=D, max_size=D),
                               label="labels")
            partition = partition_from_labels(labels)
        L = len(partition)
        n_train = data.draw(st.integers(L + 2, 500), label="n_train")
        seed = data.draw(st.integers(0, 2**16), label="seed")
        rng = np.random.default_rng(seed)
        task = make_task(rng.uniform(-1.0, 1.0, (k, D)),
                         NoiseModel.equicorrelated(1.0, k, 0.3))
        args = (task, range(k), partition, 0, n_train, 100, 10_000)
        full = monte_carlo_bias_variance(*args, seed=seed, bootstrap=20)
        part = monte_carlo_bias_variance(*args, seed=seed, bootstrap=20, total=False)
        for name in NON_TOTAL_FIELDS:
            a, b = getattr(full, name), getattr(part, name)
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), name
        assert full.total_mse is not None and full.total_se is not None
        assert part.total_mse is None and part.total_se is None

    @pytest.mark.parametrize("n_boot", [0, 1])
    def test_no_bootstrap(self, n_boot):
        task = make_task(np.ones(3), NoiseModel.independent(1.0, 1))
        args = (task, [0], identity(3), 0, 100, 100, 10_000)
        full = monte_carlo_bias_variance(*args, seed=0, bootstrap=n_boot)
        part = monte_carlo_bias_variance(*args, seed=0, bootstrap=n_boot,
                                         total=False)
        assert full.total_se is not None and part.total_se is None
        assert full.variance_se == part.variance_se

    @pytest.mark.parametrize("seed", range(6))
    def test_bootstrap_matches_previous_expression(self, seed):
        rng = np.random.default_rng(seed)
        R, n_eval, L = [(100, 10_000, 5), (137, 2_000, 1), (2, 50, 3)][seed % 3]
        scale = [1.0, 1e-3, 50.0][seed // 2]
        phi = rng.standard_normal((n_eval, L))
        f_eval = phi @ rng.standard_normal(L) + rng.standard_normal(n_eval) * 0.3
        f_eval *= scale
        coefs = (rng.standard_normal(L) + rng.standard_normal((R, L)) * 0.1) * scale
        per_rep_total = rng.uniform(0.5, 1.5, R)
        rep_seed = np.random.SeedSequence(seed)
        b_f = np.linalg.lstsq(phi, f_eval, rcond=None)[0]
        mean = coefs.mean(axis=0)
        args = (coefs - mean, phi.T @ phi / n_eval, mean - b_f)
        got = oracle._bootstrap_ses(*args, per_rep_total, 60, rep_seed)
        want = previous_bootstrap_ses(coefs @ phi.T, f_eval, per_rep_total, 60,
                                      rep_seed)
        np.testing.assert_allclose(got, want, rtol=REPLAY_RTOL, atol=REPLAY_ATOL)
        assert oracle._bootstrap_ses(*args, None, 60, rep_seed)[2] is None


class TestOracleInputValidation:
    @pytest.mark.parametrize("cluster, feature_clusters, task_index", [
        ([], ((0,), (1, 2)), 0),
        ([0, 2], ((0,), (1, 2)), 0),
        ([0, 1], ((0,), (1, 2)), 2),
        ([0, 1], ((0,), (1, 3)), 0),
        ([0, 1], ((0, 1), (1, 2)), 0),
        ([0, 1], ((0,), (1,)), 0),
        ([0, 0.9], ((0,), (1, 2)), 0),
        ([0, 1], ((0,), (1, 2)), 1.2),
    ], ids=["empty_cluster", "task_out_of_range", "task_index_out_of_range",
            "feature_out_of_range", "overlapping_features", "uncovered_feature",
            "fractional_task", "fractional_task_index"])
    def test_bad_indices_rejected(self, cluster, feature_clusters, task_index):
        task = make_task(np.ones((2, 3)), NoiseModel.independent(1.0, 2))
        with pytest.raises(ValidationError):
            monte_carlo_bias_variance(task, cluster, feature_clusters, task_index,
                                      50, 100, 10_000)
        with pytest.raises(ValidationError):
            population_bias_decomposition(task, cluster, feature_clusters,
                                          task_index, n_pop=10_000)

    @pytest.mark.parametrize("n_train", [1, 2, 3])
    def test_n_train_must_exceed_feature_clusters(self, n_train):
        task = make_task(np.ones(4), NoiseModel.independent(1.0, 1))
        with pytest.raises(ValidationError, match="n_train"):
            monte_carlo_bias_variance(task, [0], ((0,), (1,), (2, 3)), 0, n_train,
                                      100, 10_000)

    def test_singular_replicate_fit_rejected(self):
        task = make_task(np.ones(3), NoiseModel.independent(1.0, 1), feature_std=0.0)
        with pytest.raises(ValidationError, match="collinear"):
            monte_carlo_bias_variance(task, [0], identity(3), 0, 20, 100, 10_000)

    def test_noise_model_size_must_match_generator(self):
        with pytest.raises(ValidationError, match="noise model has 1 tasks, generator has 2"):
            make_task(np.ones((2, 3)), NoiseModel.independent(1.0, 1))
        with pytest.raises(ValidationError, match="noise model has 3 tasks, generator has 1"):
            make_task(np.ones(3), NoiseModel.independent(1.0, 3))


class TestCoefficientCovariance:
    def test_orthonormalized_design_is_isotropic(self):
        rng = np.random.default_rng(7)
        raw = rng.standard_normal((300, 5))
        raw = raw - raw.mean(axis=0)
        q, _ = np.linalg.qr(raw)
        X = q * np.sqrt(299)  # orthogonal columns with unit sample variance
        report = coefficient_covariance_check(X, sigma=1.0, replicates=2000, seed=1)
        theory = np.eye(5) / 299
        np.testing.assert_allclose(np.diag(report.theoretical), np.diag(theory),
                                   rtol=1e-8)
        assert report.max_rel_dev <= 0.10

    def test_correlated_pair_has_negative_off_diagonal(self):
        rng = np.random.default_rng(8)
        z = rng.standard_normal((400, 2))
        X = np.column_stack([z[:, 0], 0.5 * z[:, 0] + np.sqrt(0.75) * z[:, 1]])
        report = coefficient_covariance_check(X, sigma=1.0, replicates=2000, seed=2)
        assert report.theoretical[0, 1] < 0
        assert report.empirical[0, 1] < 0

    # A zero sigma makes every theoretical entry zero, so none is compared
    # and the deviation would read 0.0 whatever the estimate.
    @pytest.mark.parametrize("sigma", [0.0, -1.0, np.nan, np.inf])
    def test_sigma_must_be_finite_and_positive(self, sigma):
        X = np.random.default_rng(9).standard_normal((100, 3))
        with pytest.raises(ValidationError, match="sigma"):
            coefficient_covariance_check(X, sigma=sigma, replicates=200, seed=3)

    @pytest.mark.parametrize("replicates", [1, 0])
    def test_one_covariance_needs_two_replicates(self, replicates):
        X = np.random.default_rng(9).standard_normal((100, 3))
        with pytest.raises(ValidationError, match="replicates"):
            coefficient_covariance_check(X, sigma=1.0, replicates=replicates)
        assert coefficient_covariance_check(X, sigma=1.0, replicates=2).replicates == 2


class TestDeltaMse:
    def test_perfectly_correlated_noise_no_variance_gain(self):
        rng = np.random.default_rng(10)
        w = rng.uniform(0.5, 1.0, 4)
        task = make_task(np.stack([w, w + 0.05]), NoiseModel.equicorrelated(1.0, 2, 1.0))
        report = delta_mse_check(task, [0, 1], 0, n_train=300, replicates=300,
                                 n_eval=10_000, seed=0, n_pop=50_000)
        assert abs(report.dvar_theoretical) < 1e-12
        assert abs(report.dvar_empirical) <= 3 * report.dvar_se
        assert report.passed

    def test_independent_pair_variance_gain(self):
        rng = np.random.default_rng(11)
        w = rng.uniform(0.5, 1.0, 4)
        task = make_task(np.stack([w, w + 0.05]), NoiseModel.independent(1.0, 2))
        report = delta_mse_check(task, [0, 1], 0, n_train=300, replicates=300,
                                 n_eval=10_000, seed=1, n_pop=50_000)
        expected = 0.5 * 4 / 299
        assert abs(report.dvar_theoretical - expected) < 1e-12
        assert report.passed

    def test_identical_tasks_no_bias_increase(self):
        rng = np.random.default_rng(12)
        w = rng.uniform(0.5, 1.0, 4)
        task = make_task(np.stack([w, w]), NoiseModel.independent(1.0, 2))
        report = delta_mse_check(task, [0, 1], 0, n_train=300, replicates=300,
                                 n_eval=10_000, seed=2, n_pop=50_000)
        assert abs(report.dbias_theoretical) < 1e-10
        assert abs(report.dbias_empirical) <= 3 * max(report.dbias_se, 1e-12)


class TestFeatureAggregationConsistency:
    def test_profitable_population_reduction_does_not_hurt(self):
        # When the asymptotic inequality favors merging (variance saved
        # exceeds the explained-variance loss), the empirical total MSE of
        # the reduced model must not exceed the full model beyond errors.
        rng = np.random.default_rng(13)
        w = np.full(6, 0.8) + rng.uniform(-0.02, 0.02, 6)
        task = make_task(w, NoiseModel.independent(1.0, 1))
        n_train = 200
        clusters = ((0, 1, 2), (3, 4, 5))
        r2_full = 1.0  # linear signal, identity features
        r2_red = analytic_r2_for_partition(w, clusters)
        var_f = float(w @ w)
        lhs = 1.0 * (6 - 2) / (n_train - 1)
        rhs = var_f * (r2_full - r2_red)
        assert lhs >= rhs  # the merge is profitable in population terms
        full = monte_carlo_bias_variance(
            task, [0], identity(6), 0, n_train, 400, 10_000, seed=3
        )
        reduced = monte_carlo_bias_variance(
            task, [0], clusters, 0, n_train, 400, 10_000, seed=4
        )
        combined = np.hypot(full.total_se, reduced.total_se)
        assert reduced.total_mse <= full.total_mse + 3 * combined

    def test_unprofitable_population_reduction_detected(self):
        w = np.array([1.0, -1.0, 0.8, 0.5])
        n_train = 5000
        clusters = ((0, 1), (2, 3))
        r2_red = analytic_r2_for_partition(w, clusters)
        lhs = 1.0 * (4 - 2) / (n_train - 1)
        rhs = float(w @ w) * (1.0 - r2_red)
        assert lhs < rhs  # aggregation loses too much signal here
