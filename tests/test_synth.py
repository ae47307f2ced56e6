"""Generator determinism, distributional anchors, and the sweep harness."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from mtaggr import linstats
from mtaggr.aggregation import apply_partition, nonlin_ctfa
from mtaggr.data import center
from mtaggr.errors import ValidationError, ZeroVarianceError
from mtaggr.synth import SynthConfig, generate, run_trial, sweep

SMALL = SynthConfig(
    n_tasks=4, n_features=6, n_train=80, n_test=80, sigma=1.0,
    feature_std=1.0, n_repeats=3,
)


class TestGenerate:
    def test_noiseless_true_coefficients_are_exact(self):
        cfg = SynthConfig(
            n_tasks=3, n_features=5, n_train=50, n_test=50, sigma=0.0,
            feature_std=1.0,
        )
        train, test, truth = generate(cfg, 7)
        for t in range(3):
            pred = test.features @ truth.coefficients[t]
            dev = test.targets[:, t] - test.targets[:, t].mean()
            r2 = 1 - linstats.mse(pred, test.targets[:, t]) / (dev @ dev / 50)
            assert abs(r2 - 1.0) < 1e-10

    def test_bit_identical_given_config_and_seed(self):
        a = generate(SMALL, 11)
        b = generate(SMALL, 11)
        assert np.array_equal(a[0].features, b[0].features)
        assert np.array_equal(a[0].targets, b[0].targets)
        assert np.array_equal(a[1].features, b[1].features)
        assert np.array_equal(a[2].coefficients, b[2].coefficients)

    def test_disjoint_seeds_weakly_correlated(self):
        cfg = SynthConfig(n_tasks=2, n_features=5, n_train=250, n_test=10)
        a, _, _ = generate(cfg, 0)
        b, _, _ = generate(cfg, 2)
        for k in range(5):
            rho = linstats.moments(a.features[:, k], b.features[:, k]).correlation
            assert abs(rho) < 0.1

    def test_noise_covariance_matches_model(self):
        corr = np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.25], [0.0, 0.25, 1.0]])
        cfg = SynthConfig(
            n_tasks=3, n_features=2, n_train=100_000, n_test=2, sigma=2.0,
            noise_correlation=corr,
        )
        train, _, truth = generate(cfg, 5)
        noise = train.targets - train.features @ truth.coefficients.T
        emp = np.cov(noise.T, ddof=1)
        expected = 4.0 * corr
        for i in range(3):
            for j in range(3):
                if expected[i, j] == 0.0:
                    assert abs(emp[i, j]) < 0.05 * 4.0
                else:
                    assert abs(emp[i, j] - expected[i, j]) < 0.05 * abs(expected[i, j])

    def test_independent_noise_holds_no_task_by_task_array(self):
        cfg = SynthConfig(n_tasks=3000, n_features=20, n_train=200, n_test=50)
        model = cfg.noise_model()
        assert model._correlation is None and model._factor.shape == (3000,)
        tracemalloc.start()
        try:
            generate(cfg, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3000 * 3000 * 8 / 2  # half of one dense 3000 x 3000 array

    def test_generate_draws_the_bits_of_an_explicit_identity(self):
        cfg = SynthConfig(n_tasks=4, n_features=6, n_train=80, n_test=80)
        explicit = replace(cfg, noise_correlation=np.eye(4))
        for got, want in zip(generate(cfg, 5)[:2], generate(explicit, 5)[:2]):
            assert got.features.tobytes() == want.features.tobytes()
            assert got.targets.tobytes() == want.targets.tobytes()

    def test_group_structure_of_coefficients(self):
        _, _, truth = generate(SynthConfig(), 0)
        W = truth.coefficients
        groups = SynthConfig().groups()
        assert groups == (0, 0, 0, 0, 0, 1, 1, 1, 1, 1)

        def cosine(u, v):
            return (u @ v) / (np.linalg.norm(u) * np.linalg.norm(v))

        assert cosine(W[0], W[1]) > 0
        assert cosine(W[5], W[6]) > 0
        assert cosine(W[0], W[5]) < 0

    def test_odd_task_count_puts_extra_in_first_group(self):
        groups = SynthConfig(n_tasks=5).groups()
        assert groups == (0, 0, 0, 1, 1)

    def test_non_psd_correlation_rejected(self):
        corr = np.array([[1.0, 2.0], [2.0, 1.0]])
        cfg = SynthConfig(n_tasks=2, n_features=2, noise_correlation=corr)
        with pytest.raises(ValidationError, match="semidefinite"):
            generate(cfg, 0)

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            SynthConfig(n_tasks=0)
        with pytest.raises(ValidationError):
            SynthConfig(sigma=-1.0)
        with pytest.raises(ValidationError):
            SynthConfig(coefficient_intervals=((1.0, 0.5),))
        with pytest.raises(ValidationError):
            SynthConfig(n_tasks=3, group_assignment=(0, 1))
        with pytest.raises(ValidationError, match="0.9"):
            SynthConfig(n_tasks=2, group_assignment=(0.9, 1.2))
        assert SynthConfig(n_tasks=2, group_assignment=np.array([1, 0])).groups() == (1, 0)

    @pytest.mark.parametrize("field, value", [
        ("n_tasks", 2.5), ("n_tasks", True), ("n_tasks", "3"), ("n_features", 0),
        ("n_train", 60.0), ("n_test", None), ("n_repeats", 0), ("n_repeats", -1),
        ("sigma", "1"), ("sigma", True), ("sigma", float("nan")), ("sigma", np.inf),
        ("feature_std", "2"), ("feature_std", np.inf),
        ("epsilon1", "abc"), ("epsilon2", None),
    ])
    def test_config_rejects_values_it_cannot_run(self, field, value):
        with pytest.raises(ValidationError, match=field):
            SynthConfig(**{field: value})

    @pytest.mark.parametrize("seed", [1.9, 1.0, True, np.float64(2.0), "1"])
    def test_generate_rejects_a_seed_that_is_not_an_integer(self, seed):
        with pytest.raises(ValidationError, match="seed must be an integer"):
            generate(SMALL, seed)

    def test_generate_takes_the_seed_modulo_2_to_the_64(self):
        a, b = generate(SMALL, -1), generate(SMALL, 2**64 - 1)
        assert np.array_equal(a[0].features, b[0].features)
        assert np.array_equal(a[2].coefficients, b[2].coefficients)

    def test_config_accepts_numpy_numbers(self):
        cfg = SynthConfig(n_tasks=np.int64(3), n_features=np.int32(4),
                          sigma=np.float32(0.5), epsilon1=-1)
        train, _, _ = generate(cfg, 0)
        assert train.features.shape == (cfg.n_train, 4) and train.n_tasks == 3

    def test_reference_config_single_task_accuracy(self):
        # Default configuration: single-task out-of-sample R^2 near 0.48.
        values = [run_trial(SynthConfig(), seed).r2_single for seed in (10, 11, 12)]
        assert 0.43 <= np.mean(values) <= 0.53


def _phase1_by_refit(config: SynthConfig, seed: int) -> tuple[float, float]:
    """mse_phase1 and r2_phase1 from one ``ols_fit`` of each cluster's mean target."""
    train_raw, test_raw, _ = generate(config, seed)
    centering = center(train_raw)
    train, test = centering.dataset, centering.transform(test_raw)
    result = nonlin_ctfa(train, config.epsilon1, config.epsilon2, seed)
    mses, r2s = np.empty(train.n_tasks), np.empty(train.n_tasks)
    for (psi, _), cluster in zip(apply_partition(train, result),
                                 result.task_partition.clusters):
        pred = linstats.ols_fit(train.features, psi).predict(test.features)
        for t in cluster:
            mses[t] = linstats.mse(pred, test.targets[:, t])
            r2s[t] = linstats._prediction_r2(pred, test.targets[:, t])
    return float(mses.mean()), float(r2s.mean())


class TestRunTrial:
    def test_singleton_phase1_equals_single_task(self):
        cfg = SynthConfig(**{**SMALL.__dict__, "epsilon1": -1e6})
        m = run_trial(cfg, 0)
        assert m.n_task_clusters == SMALL.n_tasks
        assert m.mse_phase1 == m.mse_single
        assert m.r2_phase1 == m.r2_single
        assert m.pct_phase1 == 0.0

    def test_one_multi_column_fit_and_one_fit_per_cluster(self, monkeypatch):
        shapes, lstsq = [], np.linalg.lstsq

        def counted(A, B, *args, **kwargs):
            shapes.append(np.shape(B))
            return lstsq(A, B, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", counted)
        m = run_trial(SMALL, 1)
        K = int(m.n_task_clusters)
        assert 1 < K < SMALL.n_tasks
        # One fit of all the train targets, then one phase-II fit per cluster.
        assert shapes == [(SMALL.n_train, SMALL.n_tasks)] + [(SMALL.n_train,)] * K

    @pytest.mark.parametrize("config, seed", [
        (SMALL, 0), (SMALL, 1), (SMALL, 2),
        (replace(SMALL, epsilon1=1e6), 3),
        (replace(SMALL, n_features=30, n_train=20), 4),  # n_train < D: rank-deficient
    ])
    def test_phase1_matches_a_refit_of_each_cluster(self, config, seed):
        m = run_trial(config, seed)
        mse, r2 = _phase1_by_refit(config, seed)
        assert abs(m.mse_phase1 - mse) <= 1e-12 * abs(mse)
        assert abs(m.r2_phase1 - r2) <= 1e-12 * abs(r2)

    @pytest.mark.parametrize("groups, epsilon1", [(None, 0.0), ((0, 1, 1, 1), 1e6)])
    def test_constant_target_raises(self, groups, epsilon1):
        cfg = replace(SMALL, coefficient_intervals=((0, 0), (0.5, 1)), sigma=0.0,
                      group_assignment=groups, epsilon1=epsilon1)
        with pytest.raises(ZeroVarianceError, match="zero variance"):
            run_trial(cfg, 0)

    def test_metrics_are_finite(self):
        m = run_trial(SMALL, 1)
        for name in m.METRIC_FIELDS:
            assert np.isfinite(getattr(m, name))


class TestSweep:
    def test_unknown_axis(self):
        with pytest.raises(ValidationError, match="unknown sweep axis"):
            sweep(SMALL, "samples", [10])

    def test_rows_split_by_value(self):
        # Sweeps of separate values, run apart, give the rows of one sweep.
        assert sweep(SMALL, "sigma", [0.5, 1.0]).rows == (
            sweep(SMALL, "sigma", [0.5]).rows + sweep(SMALL, "sigma", [1.0]).rows)

    @pytest.mark.parametrize("axis, value, match", [
        ("n_train", 2.5, "n_train"), ("n_train", "2.5", "axis n_train"),
        ("n_train", True, "n_train"), ("D", "four", "axis D"),
        ("sigma", "abc", "axis sigma"), ("sigma", None, "sigma"),
        ("epsilon1", [0.0], "epsilon1"),
    ])
    def test_axis_value_of_the_wrong_type_rejected(self, axis, value, match):
        with pytest.raises(ValidationError, match=match):
            sweep(SMALL, axis, [value])

    def test_epsilon1_degenerate_endpoint(self):
        table = sweep(SMALL, "epsilon1", [-1e6])
        rows = {r["metric"]: r for r in table.rows}
        assert rows["n_task_clusters"]["mean"] == SMALL.n_tasks
        for metric in ("mse", "r2"):
            assert rows[f"{metric}_phase1"] == {**rows[f"{metric}_single"],
                                                "metric": f"{metric}_phase1"}
        assert rows["pct_phase1"]["mean"] == 0.0

    def test_sigma_zero_endpoint(self):
        table = sweep(SMALL, "sigma", [0.0])
        rows = {r["metric"]: r for r in table.rows}
        assert rows["mse_single"]["mean"] < 1e-9
        assert rows["mse_phase1"]["mean"] < 1e-9
        # Accepted feature merges may trade up to epsilon2 of explained
        # variance even without noise; still a vanishing MSE.
        assert rows["mse_phase12"]["mean"] < 1e-3
        assert rows["pct_phase1"]["mean"] == 0.0
        assert rows["pct_phase12"]["mean"] == 0.0

    def test_more_data_lowers_single_task_mse(self):
        # Trend check; a large test split keeps evaluation noise below the
        # expected gaps between sample sizes.
        cfg = SynthConfig(
            n_tasks=2, n_features=6, n_train=80, n_test=4000, sigma=1.0,
            feature_std=1.0, n_repeats=4,
        )
        table = sweep(cfg, "n_train", [20, 60, 300])
        singles = [r["mean"] for r in table.rows if r["metric"] == "mse_single"]
        assert singles[0] > singles[1] > singles[2]

    def test_axis_aliases(self):
        table = sweep(SMALL, "D", [4])
        assert table.axis == "D"
        assert any(r["metric"] == "mse_single" for r in table.rows)

    def test_csv_emission(self, tmp_path):
        table = sweep(SMALL, "sigma", [0.5, 1.0])
        path = tmp_path / "sweep.csv"
        table.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "sigma,metric,mean,std"
        assert len(lines) == 1 + 2 * 10
