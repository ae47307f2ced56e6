"""Threshold tests, the greedy loop, the two-phase driver, and trace replay."""

import json
import pickle
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtaggr.aggregation import (
    REPLAY_ATOL,
    REPLAY_RTOL,
    TRACE_SCALARS,
    AggregationResult,
    ThresholdFit,
    ThresholdReport,
    aggregation_loop,
    apply_partition,
    assert_replay,
    compute_threshold_features,
    compute_threshold_targets,
    nonlin_ctfa,
    nonlin_ctfa_homogeneous,
    reevaluate_report,
    result_from_json,
    result_to_json,
    threshold_fit,
)
from mtaggr import aggregation, linstats
from mtaggr.data import Dataset, FeaturePartition, TaskPartition, center
from mtaggr.errors import ValidationError, ZeroVarianceError
from mtaggr.synth import SynthConfig, generate


def centered(a):
    a = np.asarray(a, dtype=float)
    return a - a.mean(axis=0)


def count_calls(monkeypatch, module, name) -> list:
    """Patch ``module.name`` to record the shape of each call's first argument."""
    function, calls = getattr(module, name), []

    def counted(*args, **kw):
        calls.append(args[0].shape)
        return function(*args, **kw)

    monkeypatch.setattr(module, name, counted)
    return calls


def make_centered(seed=0, n=120, D=6, L=4, sigma=1.0, shared_groups=True):
    cfg = SynthConfig(
        n_tasks=L, n_features=D, n_train=n, n_test=n, sigma=sigma, feature_std=1.0
    )
    train, _, _ = generate(cfg, seed)
    return center(train).dataset


def with_columns(ds, features=None, targets=None):
    """A copy of ``ds`` with some feature or target columns overwritten."""
    X, Y = ds.features.copy(), ds.targets.copy()
    for k, col in (features or {}).items():
        X[:, k] = col(X)
    for k, col in (targets or {}).items():
        Y[:, k] = col(Y)
    return Dataset(X, Y)


# name -> (dataset, epsilon1, epsilon2, seed).  The shapes and tolerances
# reach both phase-II paths: the restriction identity (full-rank, well
# conditioned features) and the per-comparison refit (everything else).
REEVALUATION_CASES = {
    "small": (lambda: make_centered(seed=7), 0.0, 1e-3, 5),
    "reference": (
        lambda: center(generate(SynthConfig(), 10)[0]).dataset, 0.0, 1e-4, 10
    ),
    "n_below_d": (lambda: make_centered(seed=1, n=20, D=30), 0.0, 1e-3, 1),
    "duplicate_column": (
        lambda: with_columns(
            make_centered(seed=2, D=12), features={5: lambda X: X[:, 2]}
        ),
        0.0, 1e-3, 2,
    ),
    "zero_column": (
        lambda: with_columns(make_centered(seed=3, D=12), features={4: lambda X: 0.0}),
        0.0, 1e-3, 3,
    ),
    "constant_target": (
        lambda: with_columns(make_centered(seed=4, D=12), targets={1: lambda Y: 0.0}),
        0.0, 1e-3, 4,
    ),
    "duplicate_targets": (
        lambda: with_columns(
            make_centered(seed=5, L=5),
            targets={3: lambda Y: Y[:, 0], 4: lambda Y: Y[:, 0]},
        ),
        0.0, 1e-3, 5,
    ),
    "single_task": (lambda: make_centered(seed=6, L=1), 0.0, 1e-3, 6),
    "single_feature": (lambda: make_centered(seed=7, D=1), 0.0, 1e-3, 7),
    "every_feature_merge_accepted": (
        lambda: make_centered(seed=8, n=200, D=60, L=3), 0.0, 1e6, 8
    ),
    "no_merge_accepted": (lambda: make_centered(seed=9, D=20), -1e6, -1e6, 9),
}


def assert_reevaluates(ds, result):
    """Every record re-evaluates standalone to the same decision and scalars."""
    for k, report in enumerate(result.trace):
        again = reevaluate_report(ds, result, report)
        assert again.accepted == report.accepted, k
        assert again.note == report.note, k
        for f in TRACE_SCALARS:
            a, b = getattr(report, f), getattr(again, f)
            assert (a is None) == (b is None), (k, f)
            if a is not None:
                assert np.isclose(a, b, rtol=REPLAY_RTOL, atol=REPLAY_ATOL), (k, f)


def target_report(X, y_p, y_j, epsilon):
    """The phase-I test of merging two targets on shared features."""
    fits = [threshold_fit(X, y) for y in (y_p, y_j, 0.5 * (y_p + y_j))]
    return compute_threshold_targets(*fits, epsilon)


def feature_report(X, y, p, j, epsilon):
    """The phase-II test of replacing columns p < j of X by their mean."""
    merged = np.delete(X, j, axis=1)
    merged[:, p] = 0.5 * (X[:, p] + X[:, j])
    fits = threshold_fit(X, y), threshold_fit(merged, y)
    return compute_threshold_features(*fits, epsilon)


def adjusted_r2_oracle(X, y):
    """Independent path: normal-equation solve plus the df-adjusted R^2."""
    X = np.asarray(X, float)
    y = np.asarray(y, float)
    n = len(y)
    w = np.linalg.solve(X.T @ X, X.T @ y)
    resid = y - X @ w
    rank = np.linalg.matrix_rank(X)
    var_res = float(resid @ resid) / (n - rank)
    dev = y - y.mean()
    var_y = float(dev @ dev) / (n - 1)
    return max(0.0, 1.0 - var_res / var_y)


class TestThresholdTargets:
    def test_identical_targets_collapse_to_zero(self):
        rng = np.random.default_rng(0)
        X = centered(rng.standard_normal((100, 4)))
        y = centered(X @ [1.0, 0.5, -0.5, 0.2] + rng.standard_normal(100))
        report = target_report(X, y, y, 0.0)
        assert report.threshold1 == 0.0
        assert report.threshold2 == 0.0
        assert report.accepted
        assert report.var_p == report.var_j == report.var_ag
        assert report.varf_p >= -1e-10

    def test_shared_signal_accepted(self):
        # Two tasks with the same signal and independent noises: the merge
        # halves the noise and should be accepted at zero tolerance in at
        # least 95 percent of draws.
        rng = np.random.default_rng(1)
        accepted = 0
        draws = 50
        for _ in range(draws):
            X = centered(rng.standard_normal((2000, 5)))
            w = rng.uniform(0.5, 1.0, 5)
            f = X @ w
            y0 = centered(f + rng.standard_normal(2000))
            y1 = centered(f + rng.standard_normal(2000))
            accepted += target_report(X, y0, y1, 0.0).accepted
        assert accepted >= 0.95 * draws

    def test_orthogonal_signals_rejected(self):
        rng = np.random.default_rng(2)
        rejected = 0
        draws = 50
        for _ in range(draws):
            X = centered(rng.standard_normal((2000, 5)))
            y0 = centered(X[:, 0] + X[:, 1] + 0.1 * rng.standard_normal(2000))
            y1 = centered(X[:, 3] + X[:, 4] + 0.1 * rng.standard_normal(2000))
            rejected += not target_report(X, y0, y1, 0.0).accepted
        assert rejected >= 0.95 * draws

    def test_degenerate_aggregate_rejected_with_note(self):
        rng = np.random.default_rng(3)
        X = centered(rng.standard_normal((50, 3)))
        y = centered(rng.standard_normal(50))
        report = target_report(X, y, -y, 0.0)
        assert not report.accepted
        assert report.note is not None
        assert report.threshold1 is None

    def test_accept_flag_matches_thresholds(self):
        rng = np.random.default_rng(4)
        X = centered(rng.standard_normal((80, 3)))
        y0 = centered(X @ [1.0, 0.0, 0.0] + rng.standard_normal(80))
        y1 = centered(X @ [0.0, 1.0, 0.0] + rng.standard_normal(80))
        for eps in (-0.5, 0.0, 0.5, 5.0):
            r = target_report(X, y0, y1, eps)
            assert r.accepted == (r.threshold1 <= eps and r.threshold2 <= eps)


def test_threshold_tests_reject_fits_of_mismatched_widths():
    rng = np.random.default_rng(12)
    X = centered(rng.standard_normal((40, 4)))
    y = centered(X @ [1.0, 0.5, -0.5, 0.2] + rng.standard_normal(40))
    wide, narrow = threshold_fit(X, y), threshold_fit(X[:, :3], y)
    with pytest.raises(ValidationError):
        compute_threshold_targets(wide, wide, narrow, 0.0)
    with pytest.raises(ValidationError):
        compute_threshold_features(wide, wide, 0.0)
    assert compute_threshold_features(wide, narrow, 1.0).accepted


class TestThresholdFeatures:
    def test_duplicate_column_accepted_at_any_epsilon(self):
        rng = np.random.default_rng(5)
        X = centered(rng.standard_normal((200, 4)))
        X = np.column_stack([X, X[:, 1]])
        y = centered(X[:, :4] @ [1.0, 0.8, -0.5, 0.3] + 0.5 * rng.standard_normal(200))
        for eps in (0.0, 1e-4, 1.0):
            report = feature_report(X, y, 1, 4, eps)
            assert report.accepted, eps

    def test_antisymmetric_signal_rejected(self):
        # The target depends on the difference of the columns; their mean
        # destroys the signal, so the gap is large.  Cross-check both fits
        # against a direct normal-equation oracle.
        rng = np.random.default_rng(6)
        X = centered(rng.standard_normal((500, 4)))
        y = centered(X[:, 0] - X[:, 2] + 0.05 * rng.standard_normal(500))
        report = feature_report(X, y, 0, 2, 1e-4)
        assert not report.accepted
        assert report.r_gap > 0.5
        assert abs(report.r_p - adjusted_r2_oracle(X, y)) < 1e-8
        merged = np.column_stack([0.5 * (X[:, 0] + X[:, 2]), X[:, 1], X[:, 3]])
        assert abs(report.r_ag - adjusted_r2_oracle(merged, y)) < 1e-8

    def test_shared_signal_direction_accepted(self):
        rng = np.random.default_rng(7)
        X = centered(rng.standard_normal((2000, 4)))
        y = centered(X[:, 0] + X[:, 2] + 0.1 * rng.standard_normal(2000))
        report = feature_report(X, y, 0, 2, 1e-4)
        assert report.accepted

    def test_accept_flag_matches_gap(self):
        rng = np.random.default_rng(8)
        X = centered(rng.standard_normal((100, 4)))
        y = centered(X @ [1.0, -1.0, 0.5, 0.2] + rng.standard_normal(100))
        for eps in (-1.0, 0.0, 1e-3, 1.0):
            r = feature_report(X, y, 0, 1, eps)
            assert r.accepted == (r.r_gap <= eps)


class TestAggregationLoop:
    def test_single_item(self):
        ds = make_centered()
        clusters, trace = aggregation_loop(
            [2], 1, 0.0, features=ds.features, targets=ds.targets
        )
        assert clusters == ((2,),)
        assert trace == []

    def test_huge_epsilon_single_cluster(self):
        ds = make_centered(seed=1)
        clusters, trace = aggregation_loop(
            range(4), 1, 1e6, features=ds.features, targets=ds.targets
        )
        assert clusters == ((0, 1, 2, 3),)
        assert len(trace) == 3

    def test_huge_negative_epsilon_all_singletons(self):
        ds = make_centered(seed=1)
        clusters, trace = aggregation_loop(
            range(4), 1, -1e6, features=ds.features, targets=ds.targets
        )
        assert clusters == ((0,), (1,), (2,), (3,))
        assert len(trace) == 6  # L(L-1)/2

    def test_identical_targets_merge_with_zero_thresholds(self):
        rng = np.random.default_rng(9)
        X = centered(rng.standard_normal((80, 3)))
        y = centered(X @ [1.0, 0.5, 0.2] + rng.standard_normal(80))
        Y = np.column_stack([y, y, y])
        clusters, trace = aggregation_loop(range(3), 1, 0.0, features=X, targets=Y)
        assert clusters == ((0, 1, 2),)
        for r in trace:
            assert abs(r.threshold1) < 1e-12
            assert abs(r.threshold2) < 1e-12

    def test_worst_case_comparison_count(self):
        # Orthogonal strong signals: nothing merges, so the trace holds
        # exactly L(L-1)/2 comparisons.
        rng = np.random.default_rng(10)
        L = 6
        X = centered(rng.standard_normal((300, L)))
        Y = centered(X + 0.05 * rng.standard_normal((300, L)))
        clusters, trace = aggregation_loop(range(L), 1, 0.0, features=X, targets=Y)
        assert len(clusters) == L
        assert len(trace) == L * (L - 1) // 2

    def test_input_validation(self):
        ds = make_centered()
        with pytest.raises(ValidationError):
            aggregation_loop([], 1, 0.0, features=ds.features, targets=ds.targets)
        with pytest.raises(ValidationError):
            aggregation_loop([0], 3, 0.0, features=ds.features, targets=ds.targets)
        with pytest.raises(ValidationError):
            aggregation_loop([9], 1, 0.0, features=ds.features, targets=ds.targets)
        with pytest.raises(ValidationError):
            aggregation_loop([0], 1, 0.0, features=ds.features)

    def test_fractional_items_refused(self):
        ds = make_centered()
        with pytest.raises(ValidationError, match="1.7"):
            aggregation_loop([0, 1.7], 1, 0.0, features=ds.features, targets=ds.targets)
        with pytest.raises(ValidationError, match="2.0"):
            aggregation_loop([2.0], 2, 0.0, features=ds.features, target=ds.targets[:, 0])
        for items in (np.array([3, 0, 1]), range(3)):
            clusters, _ = aggregation_loop(items, 1, 1e6, features=ds.features,
                                           targets=ds.targets)
            assert clusters == (tuple(sorted(int(i) for i in items)),)

    @staticmethod
    def walk_data(ds, phase):
        if phase == 1:
            return range(ds.n_tasks), dict(targets=ds.targets)
        return range(ds.n_features), dict(target=ds.targets[:, 0], task_cluster=0)

    @pytest.mark.parametrize("phase", [1, 2])
    def test_a_given_svd_repeats_the_walk_bit_for_bit(self, phase):
        ds = make_centered(seed=3, D=12)
        items, data = self.walk_data(ds, phase)
        factors = linstats._factor(ds.features)
        alone = aggregation_loop(items, phase, 1e-3, features=ds.features, **data)
        shared = aggregation_loop(items, phase, 1e-3, features=ds.features,
                                  factors=factors, **data)
        assert shared == alone

    @pytest.mark.parametrize("phase", [1, 2])
    def test_svd_factors_of_another_shape_rejected(self, phase):
        ds = make_centered(seed=3, D=12)
        X = ds.features
        items, data = self.walk_data(ds, phase)
        for other in (X[:, :-1], X[:-1], X.T):
            with pytest.raises(ValidationError, match="SVD factors"):
                aggregation_loop(items, phase, 0.0, features=X,
                                 factors=linstats._factor(other), **data)

    @pytest.mark.parametrize("constant", [True, False])
    def test_phase2_factors_only_a_target_it_can_merge_against(self, constant, monkeypatch):
        # A target of zero variance rejects every merge without a fit, so a
        # walk given no factors makes no SVD for it.
        X = make_centered(seed=3, n=50, D=8).features
        y = np.zeros(50) if constant else X @ np.linspace(1.0, 2.0, 8)
        calls = count_calls(monkeypatch, np.linalg, "svd")
        aggregation_loop(range(8), 2, 1e-3, features=X, target=y)
        assert calls == ([] if constant else [X.shape])


class TestRestrictionBlocks:
    @pytest.mark.parametrize("block", [8, 32])
    def test_chain_across_flushes_matches_refits(self, block, monkeypatch):
        # Phase II accepts more than three blocks of downdates, most of them
        # into one feature cluster, so it applies several rank-k updates to
        # K and recomputes its residual as often mid-chain.  Near-collinear
        # column pairs give K large off-diagonal entries.  The block is
        # shrunk so that the lstsq reference stays cheap; the scaling rows
        # of tools/bench_scaling.py cover the module's own block.
        monkeypatch.setattr(aggregation, "_DOWNDATE_BLOCK", block)
        rng = np.random.default_rng(12)
        D = 3 * block + 5
        n = 3 * D
        X = rng.standard_normal((n, D))
        for k in range(0, 16, 2):
            X[:, k + 1] = X[:, k] + 0.2 * rng.standard_normal(n)
        X = centered(X)
        y = centered(X @ (1.0 + 0.05 * rng.standard_normal(D))
                     + 3.0 * rng.standard_normal(n))
        ds, eps2 = Dataset(X, y[:, None]), 1e-3
        result = nonlin_ctfa(ds, 0.0, eps2, seed=0)

        model = aggregation._feature_merges(X, y, eps2, 0, linstats._factor(X))
        assert type(model).__name__ == "_FeatureRestrictions"
        clusters = result.feature_partitions[0].clusters
        assert 2 * max(map(len, clusters)) > D
        got = [r for r in result.trace if r.phase == 2]
        assert 3 * block <= sum(r.accepted for r in got) < len(got)
        refits = aggregation._FeatureRefits(X, y, eps2, 0)
        want_clusters, want = aggregation._greedy(list(range(D)), refits)
        assert clusters == want_clusters
        assert [(r.cluster_id, r.candidate, r.members, r.accepted) for r in got] == [
            (r.cluster_id, r.candidate, r.members, r.accepted) for r in want
        ]
        assert_reevaluates(ds, result)


class TestDriver:
    def test_one_svd_per_run(self, monkeypatch):
        # Phase I and every task cluster's phase II share one SVD of X.
        build, eps1, eps2, seed = REEVALUATION_CASES["reference"]
        ds = build()
        calls = count_calls(monkeypatch, np.linalg, "svd")
        result = nonlin_ctfa(ds, eps1, eps2, seed=seed)
        assert result.task_partition.n_clusters > 1
        assert calls == [ds.features.shape]

    def test_negative_epsilon1_keeps_singletons(self):
        ds = make_centered(seed=2)
        result = nonlin_ctfa(ds, -1e6, 1e-4, seed=0)
        assert result.task_partition.n_clusters == ds.n_tasks
        assert len(result.feature_partitions) == ds.n_tasks

    def test_determinism_given_seed(self):
        ds = make_centered(seed=3)
        a = nonlin_ctfa(ds, 0.0, 1e-4, seed=42)
        b = nonlin_ctfa(ds, 0.0, 1e-4, seed=42)
        assert result_to_json(a) == result_to_json(b)

    def test_two_seeds_both_valid_and_replayable(self):
        ds = make_centered(seed=4)
        for seed in (1, 2):
            result = nonlin_ctfa(ds, 0.0, 1e-4, seed=seed)
            covered = sorted(t for c in result.task_partition.clusters for t in c)
            assert covered == list(range(ds.n_tasks))
            for fp in result.feature_partitions:
                assert sorted(f for c in fp.clusters for f in c) == list(
                    range(ds.n_features)
                )
            assert_replay(ds, result)

    def test_constant_target_column_survives(self):
        # A zero-variance target makes R^2 undefined: every comparison that
        # touches it must be rejected with a note, never crash.
        rng = np.random.default_rng(40)
        X = centered(rng.standard_normal((60, 4)))
        Y = centered(np.column_stack([X @ [1.0, 0.5, 0.2, -0.3],
                                      rng.standard_normal(60)]))
        Y = np.column_stack([Y, np.zeros(60)])
        ds = Dataset(X, Y)
        result = nonlin_ctfa(ds, 0.0, 1e-4, seed=0)
        covered = sorted(t for c in result.task_partition.clusters for t in c)
        assert covered == [0, 1, 2]
        assert (2,) in result.task_partition.clusters
        notes = [r for r in result.trace if r.note is not None]
        assert notes and all(not r.accepted for r in notes)

    def test_uncentered_input_rejected(self):
        rng = np.random.default_rng(11)
        ds = Dataset(rng.standard_normal((50, 3)) + 5.0, rng.standard_normal((50, 2)))
        with pytest.raises(ValidationError, match="center"):
            nonlin_ctfa(ds, 0.0, 1e-4, seed=0)

    def test_any_seed_value_accepted(self):
        ds = make_centered(seed=5)
        for seed in (0, 2**63, 2**64 - 1, -17, 2**80 + 3):
            result = nonlin_ctfa(ds, 0.0, 1e-4, seed=seed)
            assert 0 <= result.seed < 2**64

    @pytest.mark.parametrize("seed", [1.7, 1.0, True, np.float64(3.0), "1", None])
    def test_seed_that_is_not_an_integer_rejected(self, seed):
        ds = make_centered(seed=5)
        with pytest.raises(ValidationError, match="seed must be an integer"):
            nonlin_ctfa(ds, 0.0, 1e-4, seed=seed)
        with pytest.raises(ValidationError, match="seed must be an integer"):
            nonlin_ctfa_homogeneous(make_homogeneous(seed=5), 0.0, seed=seed)

    def test_trace_report_invariants(self):
        ds = make_centered(seed=6)
        result = nonlin_ctfa(ds, 0.0, 1e-3, seed=3)
        assert result.trace
        for r in result.trace:
            if r.note is not None:
                assert not r.accepted
                continue
            if r.phase == 1:
                assert r.accepted == (
                    r.threshold1 <= r.epsilon and r.threshold2 <= r.epsilon
                )
                for v in (r.varf_p, r.varf_j, r.varf_ag):
                    assert v >= -1e-10
            else:
                assert r.accepted == (r.r_gap <= r.epsilon)
                for v in (r.varf_p, r.varf_ag):
                    assert v >= -1e-10

    @pytest.mark.parametrize("case", sorted(REEVALUATION_CASES))
    def test_standalone_reevaluation_matches(self, case):
        # reevaluate_report refits every record with lstsq, independently of
        # the statistics the greedy loop decides from.
        build, eps1, eps2, seed = REEVALUATION_CASES[case]
        ds = build()
        assert_reevaluates(ds, nonlin_ctfa(ds, eps1, eps2, seed=seed))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        n=st.integers(3, 40),
        D=st.integers(1, 12),
        L=st.integers(1, 4),
        degenerate=st.sampled_from([None, "duplicate", "zero"]),
        eps1=st.sampled_from([-1.0, 0.0, 0.5]),
        eps2=st.sampled_from([-1.0, 0.0, 1e-3, 1e6]),
        seed=st.integers(0, 2**16),
    )
    def test_reevaluation_matches_on_random_shapes(
        self, n, D, L, degenerate, eps1, eps2, seed
    ):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, D))
        if degenerate == "duplicate" and D > 1:
            X[:, -1] = X[:, 0]
        if degenerate == "zero":
            X[:, -1] = 0.0
        Y = X @ rng.standard_normal((D, L)) + rng.standard_normal((n, L))
        ds = Dataset(centered(X), centered(Y))
        assert_reevaluates(ds, nonlin_ctfa(ds, eps1, eps2, seed=seed))

    def test_first_comparison_monotonicity_in_epsilon(self):
        ds = make_centered(seed=8)
        lo = nonlin_ctfa(ds, -0.4, 1e-4, seed=9)
        hi = nonlin_ctfa(ds, 0.4, 1e-4, seed=9)

        def first_comparisons(result):
            return {
                (r.members, r.candidate): r.accepted
                for r in result.trace
                if r.phase == 1 and len(r.members) == 1
            }

        low_map = first_comparisons(lo)
        high_map = first_comparisons(hi)
        for key, accepted_low in low_map.items():
            if accepted_low and key in high_map:
                assert high_map[key]

    def test_json_round_trip_byte_identical(self):
        ds = make_centered(seed=9)
        result = nonlin_ctfa(ds, 0.0, 1e-4, seed=1)
        text = result_to_json(result)
        rebuilt = result_from_json(text, ds)
        assert result_to_json(rebuilt) == text

    @pytest.mark.parametrize("homogeneous", [False, True])
    def test_json_has_one_line_per_trace_record(self, homogeneous):
        if homogeneous:
            ds = make_homogeneous(seed=6)
            result = nonlin_ctfa_homogeneous(ds, 0.0, seed=1)
        else:
            ds = make_centered(seed=9)
            result = nonlin_ctfa(ds, 0.0, 1e-4, seed=1)
        text = result_to_json(result)
        # The layout written with json.dumps(doc, indent=2) before records
        # moved onto single lines, built here from the result's fields.
        # Version 2 stores no members.
        indented = json.dumps({
            "format_version": 2,
            "seed": result.seed,
            "epsilon1": result.epsilon1,
            "epsilon2": result.epsilon2,
            "homogeneous": result.homogeneous,
            "fingerprint": result.fingerprint,
            "task_clusters": [list(c) for c in result.task_partition.clusters],
            "feature_clusters": [
                [list(c) for c in fp.clusters] for fp in result.feature_partitions
            ],
            "trace": [
                {("cluster" if name == "cluster_id" else name): getattr(r, name)
                 for name in r._fields if name != "members"}
                for r in result.trace
            ],
        }, indent=2)
        doc, want = json.loads(text), json.loads(indented)
        assert doc == want
        assert list(doc) == list(want)
        assert [list(r) for r in doc["trace"]] == [list(r) for r in want["trace"]]
        lines = text.splitlines()
        assert text.endswith("]}\n") and lines[-1] == "]}"
        assert lines[0].startswith('{"format_version": 2, ')
        assert lines[0].endswith('"trace": [')
        assert len(lines) == len(result.trace) + 2
        for line, record in zip(lines[1:-1], want["trace"]):
            assert json.loads(line.removesuffix(",")) == record

    def test_json_rejects_out_of_range(self):
        ds = make_centered(seed=9)
        result = nonlin_ctfa(ds, 0.0, 1e-4, seed=1)
        smaller = Dataset(ds.features[:, :3], ds.targets[:, :2])
        with pytest.raises(ValidationError):
            result_from_json(result_to_json(result), smaller)

    @pytest.mark.parametrize("case", sorted(REEVALUATION_CASES))
    def test_loaded_document_replays_and_reevaluates(self, case):
        # The members of a loaded record are rebuilt from the partitions, so
        # each record must re-evaluate from them as the run's record did.
        build, eps1, eps2, seed = REEVALUATION_CASES[case]
        ds = build()
        result = nonlin_ctfa(ds, eps1, eps2, seed=seed)
        loaded = result_from_json(result_to_json(result), ds)
        assert loaded.trace == result.trace
        if case == "duplicate_column":
            assert any(len(r.members) > 1 for r in loaded.trace if r.phase == 2)
        assert_replay(ds, loaded)
        assert_reevaluates(ds, loaded)

    def test_reevaluation_rejects_records_outside_the_partitions(self):
        ds = make_centered(seed=9)
        result = nonlin_ctfa(ds, 0.0, 1e-4, seed=1)
        report = next(r for r in result.trace if r.phase == 2 and r.cluster_id > 0)
        clusters = result.feature_partitions[report.task_cluster].clusters
        for change in (
            {"task_cluster": result.task_partition.n_clusters},
            {"task_cluster": -1},
            {"task_cluster": None},
            {"cluster_id": len(clusters)},
            {"cluster_id": -1},
            {"candidate": clusters[0][0]},
            {"candidate": ds.n_features},
            {"members": report.members + (clusters[0][0],)},
        ):
            with pytest.raises(ValidationError):
                reevaluate_report(ds, result, report._replace(**change))

    @pytest.mark.parametrize("homogeneous", [False, True])
    @pytest.mark.parametrize(
        "change",
        ["negative_candidate", "negative_member", "candidate_past_end",
         "member_past_end", "no_members", "candidate_is_member",
         "fractional_member"],
    )
    def test_reevaluation_rejects_phase1_records_outside_the_tasks(
        self, change, homogeneous
    ):
        ds = make_homogeneous(seed=6)
        if homogeneous:
            result = nonlin_ctfa_homogeneous(ds, 0.0, seed=1)
        else:
            result = nonlin_ctfa(ds, 0.0, 1e-4, seed=1)
        report = next(r for r in result.trace if r.phase == 1)
        T = ds.n_tasks
        fields = {
            "negative_candidate": {"candidate": -1},
            "negative_member": {"members": (-1,)},
            "candidate_past_end": {"candidate": T},
            "member_past_end": {"members": report.members + (T,)},
            "no_members": {"members": ()},
            "candidate_is_member": {"candidate": report.members[0]},
            "fractional_member": {"members": report.members[:-1] + (0.5,)},
        }[change]
        with pytest.raises(ValidationError):
            reevaluate_report(ds, result, report._replace(**fields))

    @pytest.mark.parametrize("case", ["reference", "n_below_d", "homogeneous"])
    def test_one_threshold_call_per_recorded_comparison(self, case, monkeypatch):
        # The benchmark counts one comparison per call of the module-level
        # threshold tests and checks that count against the trace.
        calls, accepts, paths = {1: 0, 2: 0}, {1: 0, 2: 0}, set()
        for phase, name in ((1, "compute_threshold_targets"),
                            (2, "compute_threshold_features")):
            def counted(*args, _phase=phase, _test=getattr(aggregation, name), **kw):
                report = _test(*args, **kw)
                calls[_phase] += 1
                accepts[_phase] += report.accepted
                return report

            monkeypatch.setattr(aggregation, name, counted)
        feature_merges = aggregation._feature_merges

        def recorded(*args):
            model = feature_merges(*args)
            paths.add(type(model).__name__)
            return model

        monkeypatch.setattr(aggregation, "_feature_merges", recorded)
        if case == "homogeneous":
            # Thresholds here lie near 1.2; this tolerance accepts 2 of 4.
            ds = make_homogeneous(seed=6)
            result = nonlin_ctfa_homogeneous(ds, 1.2, seed=1)
        else:
            build, eps1, eps2, seed = REEVALUATION_CASES[case]
            ds = build()
            result = nonlin_ctfa(ds, eps1, eps2, seed=seed)
        assert paths == {
            "reference": {"_FeatureRestrictions"},
            "n_below_d": {"_FeatureRefits"},
            "homogeneous": set(),
        }[case]
        for phase in (1, 2):
            records = [r for r in result.trace if r.phase == phase]
            assert calls[phase] == len(records), phase
            assert accepts[phase] == sum(r.accepted for r in records), phase
        assert 0 < sum(accepts.values()) < len(result.trace)

    def test_zero_variance_target_makes_no_phase2_fit(self, monkeypatch):
        # Every merge against a constant target is rejected on the target
        # alone, so that task cluster's phase II needs no least-squares fit.
        ds = with_columns(
            make_centered(seed=1, n=20, D=30, L=2), targets={1: lambda Y: 0.0}
        )
        lstsq, greedy = np.linalg.lstsq, aggregation._greedy
        walk, fits = [None], {}

        def counted(*args, **kw):
            fits[walk[0]] = fits.get(walk[0], 0) + 1
            return lstsq(*args, **kw)

        def tagged(order, model):
            walk[0] = getattr(model, "task_cluster", "phase1")
            try:
                return greedy(order, model)
            finally:
                walk[0] = None

        monkeypatch.setattr(np.linalg, "lstsq", counted)
        monkeypatch.setattr(aggregation, "_greedy", tagged)
        result = nonlin_ctfa(ds, -1e6, 1e-3, seed=1)
        monkeypatch.undo()

        assert sorted(result.task_partition.clusters) == [(0,), (1,)]
        zero = result.task_partition.clusters.index((1,))
        records = [r for r in result.trace if r.phase == 2 and r.task_cluster == zero]
        assert records and fits.get(zero, 0) == 0
        assert fits[1 - zero] > 0
        # The same records as a walk that refits every working matrix.
        psi = apply_partition(ds, result)[zero][0]
        refits = aggregation._FeatureRefits(ds.features, psi, 1e-3, zero)
        _, want = greedy(list(range(ds.n_features)), refits)
        assert records == want
        assert all(not r.accepted and r.note for r in records)

    def test_refit_path_adopts_the_accepted_fit(self, monkeypatch):
        # On the refit path an accept makes the merged fit the open
        # cluster's separated fit, so no lstsq call follows an accept: each
        # comparison fits its merged matrix, and only the first comparison
        # of a cluster fits its separated matrix as well.
        build, eps1, eps2, seed = REEVALUATION_CASES["n_below_d"]
        ds = build()
        events, lstsq = [], np.linalg.lstsq
        test = aggregation.compute_threshold_features

        def counted(*args, **kw):
            events.append("lstsq")
            return lstsq(*args, **kw)

        def compared(*args, **kw):
            events.append("compare")
            return test(*args, **kw)

        monkeypatch.setattr(np.linalg, "lstsq", counted)
        monkeypatch.setattr(aggregation, "compute_threshold_features", compared)
        result = nonlin_ctfa(ds, eps1, eps2, seed=seed)
        monkeypatch.undo()

        records = [r for r in result.trace if r.phase == 2]
        fits = [run.count("lstsq") for run in " ".join(events).split("compare")[:-1]]
        assert len(fits) == len(records)
        opens = [k == 0 or (r.task_cluster, r.cluster_id) != (records[k - 1].task_cluster,
                                                             records[k - 1].cluster_id)
                 for k, r in enumerate(records)]
        assert fits == [2 if first else 1 for first in opens]
        after_accept = [r for k, r in enumerate(records)
                        if not opens[k] and records[k - 1].accepted]
        assert len(after_accept) >= 10
        assert_reevaluates(ds, result)

    def test_package_exports_reevaluation_and_fit(self):
        import mtaggr

        assert mtaggr.reevaluate_report is reevaluate_report
        assert mtaggr.threshold_fit is threshold_fit is linstats.threshold_fit
        assert mtaggr.ThresholdFit is ThresholdFit is linstats.ThresholdFit
        fit = mtaggr.threshold_fit(np.eye(3)[:, :2], np.array([1.0, 0.0, -1.0]))
        assert isinstance(fit, mtaggr.ThresholdFit)
        assert (fit.n, fit.d, fit.rank) == (3, 2, 2)
        assert {"ThresholdFit", "reevaluate_report", "threshold_fit"} <= set(
            mtaggr.__all__
        )

    def test_json_keeps_variant_of_singleton_feature_clusters(self):
        # A shared-feature run whose feature clusters are all singletons, on
        # a dataset that also carries slabs, must not reload as homogeneous.
        ds = make_homogeneous(seed=5)
        result = nonlin_ctfa(ds, 0.0, -1.0, seed=3)
        assert all(len(c) == 1 for fp in result.feature_partitions for c in fp.clusters)
        rebuilt = result_from_json(result_to_json(result), ds)
        assert not rebuilt.homogeneous
        assert_replay(ds, rebuilt)


def degenerate_dataset(n, D, L, homogeneous, degenerate, seed):
    """Random centered data with one degenerate feature or target column."""
    rng = np.random.default_rng(seed)
    slabs = [rng.standard_normal((n, D)) for _ in range(L if homogeneous else 1)]
    for X in slabs:
        if degenerate == "duplicate" and D > 1:
            X[:, -1] = X[:, 0]
        if degenerate == "constant_column":
            X[:, -1] = 1.0
    Y = np.column_stack(
        [slabs[t % len(slabs)] @ rng.standard_normal(D) for t in range(L)]
    ) + rng.standard_normal((n, L))
    if degenerate == "constant_target":
        Y[:, -1] = 3.0
    slabs = [centered(X) for X in slabs]
    if homogeneous:
        return Dataset(np.mean(slabs, axis=0), centered(Y), per_task_features=slabs)
    return Dataset(slabs[0], centered(Y))


def run_variant(ds, homogeneous, eps1, eps2, seed):
    if homogeneous:
        return nonlin_ctfa_homogeneous(ds, eps1, seed=seed)
    return nonlin_ctfa(ds, eps1, eps2, seed=seed)


class TestResultDocument:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        n=st.integers(3, 30),
        D=st.integers(1, 12),
        L=st.integers(1, 5),
        homogeneous=st.booleans(),
        degenerate=st.sampled_from([None, "duplicate", "constant_column",
                                    "constant_target"]),
        eps1=st.sampled_from([-1e6, 0.0, 0.5, 1e6]),
        eps2=st.sampled_from([-1e6, 0.0, 1e-3, 1e6]),
        seed=st.integers(0, 2**16),
    )
    def test_round_trip_rebuilds_every_record(
        self, n, D, L, homogeneous, degenerate, eps1, eps2, seed
    ):
        ds = degenerate_dataset(n, D, L, homogeneous, degenerate, seed)
        result = run_variant(ds, homogeneous, eps1, eps2, seed)
        text = result_to_json(result)
        loaded = result_from_json(text, ds)
        assert loaded.trace == result.trace
        assert [r.members for r in loaded.trace] == [r.members for r in result.trace]
        for field in ("seed", "epsilon1", "epsilon2", "homogeneous", "fingerprint"):
            assert getattr(loaded, field) == getattr(result, field), field
        assert loaded.task_partition.clusters == result.task_partition.clusters
        assert [fp.clusters for fp in loaded.feature_partitions] == [
            fp.clusters for fp in result.feature_partitions
        ]
        assert_replay(ds, loaded)
        assert_reevaluates(ds, loaded)
        assert result_to_json(loaded) == text

    # Tolerances at which both variants accept some merges and reject others.
    @pytest.mark.parametrize("homogeneous, epsilon", [(False, 0.0), (True, 1.2)])
    def test_records_of_one_cluster_state_share_their_members(
        self, homogeneous, epsilon
    ):
        ds = make_homogeneous(seed=6, L=8, shared_signal=homogeneous)
        result = run_variant(ds, homogeneous, epsilon, 1e-3, 1)
        loaded = result_from_json(result_to_json(result), ds)
        for trace in (result.trace, loaded.trace):
            shared = grown = 0
            for a, b in zip(trace, trace[1:]):
                if (a.phase, a.task_cluster, a.cluster_id) != (
                        b.phase, b.task_cluster, b.cluster_id):
                    continue
                if a.accepted:
                    assert b.members == a.members + (a.candidate,)
                    grown += 1
                else:
                    assert b.members is a.members
                    shared += 1
            assert shared and grown

    def test_fingerprint_names_the_data(self):
        ds = make_homogeneous(seed=6)
        shared = nonlin_ctfa(ds, 0.0, 1e-3, seed=1).fingerprint
        assert shared == nonlin_ctfa_homogeneous(ds, 0.0, seed=2).fingerprint
        assert shared.startswith(f"n={ds.n_samples} D={ds.n_features} "
                                 f"L={ds.n_tasks} slabs={ds.n_tasks} sha256=")
        changed = [s.copy() for s in ds.per_task_features]
        changed[-1][0, 0] += 1.0
        other = Dataset(ds.features, ds.targets, per_task_features=changed)
        assert nonlin_ctfa(other, 0.0, 1e-3, seed=1).fingerprint != shared

    @pytest.mark.parametrize("cell", ["feature", "target", "slab"])
    def test_rejects_other_data(self, cell):
        ds = make_homogeneous(seed=6)
        text = result_to_json(nonlin_ctfa_homogeneous(ds, 0.0, seed=1))
        X, Y = ds.features.copy(), ds.targets.copy()
        slabs = [s.copy() for s in ds.per_task_features]
        {"feature": X, "target": Y, "slab": slabs[2]}[cell][5, 1] += 1e-9
        with pytest.raises(ValidationError, match="written from data"):
            result_from_json(text, Dataset(X, Y, per_task_features=slabs))

    def test_rejects_the_wrong_variant(self):
        slab_ds = make_homogeneous(seed=6)
        plain_ds = Dataset(slab_ds.features, slab_ds.targets)
        homogeneous = result_to_json(nonlin_ctfa_homogeneous(slab_ds, 0.0, seed=1))
        with pytest.raises(ValidationError, match="per-task slabs"):
            result_from_json(homogeneous, plain_ds)
        shared = result_to_json(nonlin_ctfa(plain_ds, 0.0, 1e-3, seed=1))
        with pytest.raises(ValidationError, match="per-task slabs"):
            result_from_json(shared.replace('"homogeneous": false', '"homogeneous": true'),
                             plain_ds)
        # The reverse: a shared-feature run on data without slabs, read
        # against the same matrices with slabs.
        with pytest.raises(ValidationError, match="slabs=0"):
            result_from_json(shared, slab_ds)

    @pytest.mark.parametrize("version", [0, 1, 3, "2", 2.0, True, None, "absent"])
    def test_rejects_an_unknown_format_version(self, version):
        ds = make_centered(seed=9)
        doc = json.loads(result_to_json(nonlin_ctfa(ds, 0.0, 1e-4, seed=1)))
        if version == "absent":
            del doc["format_version"]
        else:
            doc["format_version"] = version
        with pytest.raises(ValidationError, match="format_version"):
            result_from_json(json.dumps(doc), ds)

    @pytest.mark.parametrize("tamper", [
        "move_task", "swap_task_clusters", "move_feature", "flip_decision",
        "drop_record", "change_candidate", "homogeneous_merged_features",
    ])
    def test_rejects_a_trace_the_partitions_cannot_produce(self, tamper):
        ds = make_centered(seed=9)
        result = nonlin_ctfa(ds, 0.0, 1e-4, seed=1)
        assert result.task_partition.clusters == ((0, 1), (2, 3))
        assert result.feature_partitions[1].clusters == ((0, 4), (1, 2, 3, 5))
        doc = json.loads(result_to_json(result))
        trace = doc["trace"]
        if tamper == "move_task":
            doc["task_clusters"] = [[0, 1, 2], [3]]
        elif tamper == "swap_task_clusters":
            doc["task_clusters"] = doc["task_clusters"][::-1]
        elif tamper == "move_feature":
            doc["feature_clusters"][1] = [[0, 4, 5], [1, 2, 3]]
        elif tamper == "flip_decision":
            trace[3]["accepted"] = not trace[3]["accepted"]
        elif tamper == "drop_record":
            del trace[-1]
        elif tamper == "change_candidate":
            trace[-1]["candidate"] = 0
        else:
            doc["homogeneous"] = True
            slab_ds = Dataset(ds.features, ds.targets,
                              per_task_features=[ds.features] * ds.n_tasks)
            doc["fingerprint"] = aggregation._fingerprint(slab_ds)
            ds = slab_ds
        with pytest.raises(ValidationError):
            result_from_json(json.dumps(doc), ds)

    @pytest.mark.parametrize("edit", [
        lambda doc: {**doc, "seed": 1.7},
        lambda doc: {**doc, "seed": True},
        lambda doc: {**doc, "seed": "x"},
        lambda doc: {**doc, "epsilon1": "abc"},
        lambda doc: {**doc, "task_clusters": 5},
        lambda doc: {**doc, "feature_clusters": None},
        lambda doc: {**doc, "trace": None},
        lambda doc: [doc],
        lambda doc: json.dumps(doc)[:-40],
        lambda doc: {**doc, "task_clusters": [["0", 1], [2, 3]]},
        lambda doc: {**doc, "trace": [5] * len(doc["trace"])},
        lambda doc: {**doc, "trace": [{**doc["trace"][0], "r_p": "abc"},
                                      *doc["trace"][1:]]},
        lambda doc: {**doc, "fingerprint": None},
        lambda doc: {**doc, "fingerprint": 7},
    ], ids=["fractional_seed", "boolean_seed", "text_seed", "text_epsilon",
            "scalar_task_clusters", "null_feature_clusters", "null_trace",
            "top_level_list", "not_json", "text_cluster_index",
            "record_not_an_object", "text_trace_scalar", "null_fingerprint",
            "numeric_fingerprint"])
    def test_rejects_a_malformed_document(self, edit):
        ds = make_centered(seed=9)
        doc = json.loads(result_to_json(nonlin_ctfa(ds, 0.0, 1e-4, seed=1)))
        assert doc["task_clusters"] == [[0, 1], [2, 3]]
        assert doc["trace"][0]["phase"] == 1
        edited = edit(doc)
        text = edited if isinstance(edited, str) else json.dumps(edited)
        with pytest.raises(ValidationError):
            result_from_json(text, ds)


class TestApplyPartition:
    def test_identity_partitions_reproduce_columns(self):
        ds = make_centered(seed=10)
        result = nonlin_ctfa(ds, -1e6, -1e6, seed=0)
        reduced = apply_partition(ds, result)
        assert len(reduced) == ds.n_tasks
        for ci, cluster in enumerate(result.task_partition.clusters):
            t = cluster[0]
            np.testing.assert_array_equal(reduced[ci][0], ds.targets[:, t])
            np.testing.assert_array_equal(reduced[ci][1], ds.features)

    def test_single_cluster_is_row_mean(self):
        ds = make_centered(seed=11)
        result = nonlin_ctfa(ds, 1e6, 1e6, seed=0)
        reduced = apply_partition(ds, result)
        assert len(reduced) == 1
        np.testing.assert_allclose(
            reduced[0][0], ds.targets.mean(axis=1), atol=1e-12
        )

    def test_feature_cover_property(self):
        ds = make_centered(seed=12)
        result = nonlin_ctfa(ds, 0.0, 1e-3, seed=4)
        for fp in result.feature_partitions:
            assert sorted(i for c in fp.clusters for i in c) == list(
                range(ds.n_features)
            )

    def test_out_of_bounds_rejected(self):
        ds = make_centered(seed=13)
        result = nonlin_ctfa(ds, 0.0, 1e-4, seed=0)
        smaller = Dataset(ds.features, ds.targets[:, :2])
        with pytest.raises(ValidationError):
            apply_partition(smaller, result)

    @pytest.mark.parametrize("L, D", [(4, 7), (4, 5), (3, 7), (2, 5), (3, 4)])
    def test_dataset_of_another_shape_rejected(self, L, D):
        ds = make_centered(seed=13, D=5, L=3)
        result = nonlin_ctfa(ds, 0.0, 1e-4, seed=0)
        assert len(apply_partition(ds, result)) == result.task_partition.n_clusters
        want = rf"\(3, 5\); the dataset has \({L}, {D}\)"
        with pytest.raises(ValidationError, match=want):
            apply_partition(make_centered(seed=14, D=D, L=L), result)


def make_homogeneous(seed=0, n=150, D=5, L=4, noise=0.5, shared_signal=True):
    """Per-task slabs; either one shared coefficient vector or unrelated ones."""
    rng = np.random.default_rng(seed)
    slabs = tuple(rng.standard_normal((n, D)) for _ in range(L))
    w = rng.uniform(0.5, 1.0, D)
    cols = []
    for i in range(L):
        wi = w if shared_signal else rng.uniform(0.5, 1.0, D) * rng.choice([-1, 1], D)
        cols.append(slabs[i] @ wi + noise * rng.standard_normal(n))
    ds = Dataset(np.mean(slabs, axis=0), np.column_stack(cols), per_task_features=slabs)
    return center(ds).dataset


class TestHomogeneousVariant:
    def test_requires_slabs(self):
        ds = make_centered()
        with pytest.raises(ValidationError, match="per_task_features"):
            nonlin_ctfa_homogeneous(ds, 0.0, seed=0)

    def test_shared_result_reduces_the_shared_features_of_data_with_slabs(self):
        ds = make_homogeneous(seed=5, n=30, D=3, L=2)
        shared = Dataset(ds.features, ds.targets)
        result = nonlin_ctfa(shared, 1e6, 1e6, seed=0)
        assert result.task_partition.clusters == ((0, 1),)
        got = apply_partition(ds, result)
        want = apply_partition(shared, result)
        assert len(got) == len(want) == 1
        assert np.array_equal(got[0][0], want[0][0])
        assert np.array_equal(got[0][1], want[0][1])

    def test_homogeneous_result_refused_for_data_without_slabs(self):
        ds = make_homogeneous(seed=5, n=30, D=3, L=2)
        result = nonlin_ctfa_homogeneous(ds, 0.0, seed=0)
        with pytest.raises(ValidationError, match="needs data with per-task slabs"):
            apply_partition(Dataset(ds.features, ds.targets), result)

    def test_identical_tasks_merge_with_zero_thresholds(self):
        rng = np.random.default_rng(20)
        n, D = 100, 4
        slab = rng.standard_normal((n, D))
        y = slab @ np.array([1.0, 0.5, -0.5, 0.2]) + 0.3 * rng.standard_normal(n)
        ds = Dataset(
            slab, np.column_stack([y, y]), per_task_features=(slab, slab.copy())
        )
        ds = center(ds).dataset
        result = nonlin_ctfa_homogeneous(ds, 0.0, seed=0)
        assert result.task_partition.clusters == ((0, 1),)
        assert abs(result.trace[0].threshold1) < 1e-12

    def test_unrelated_tasks_rejected(self):
        rejected = 0
        draws = 50
        for seed in range(draws):
            ds = make_homogeneous(seed=seed, L=2, shared_signal=False)
            result = nonlin_ctfa_homogeneous(ds, 0.0, seed=seed)
            rejected += result.task_partition.n_clusters == 2
        assert rejected >= 0.9 * draws

    def test_full_merge_slab_is_mean_of_slabs(self):
        ds = make_homogeneous(seed=3)
        result = nonlin_ctfa_homogeneous(ds, 1e6, seed=1)
        assert result.task_partition.n_clusters == 1
        reduced = apply_partition(ds, result)
        slab_mean = np.mean(ds.per_task_features, axis=0)
        assert np.max(np.abs(reduced[0][1] - slab_mean)) < 1e-10

    def test_each_cluster_reduces_to_its_own_mean_slab(self):
        ds = make_homogeneous(seed=6, L=8)
        result = nonlin_ctfa_homogeneous(ds, 1.2, seed=1)
        clusters = result.task_partition.clusters
        assert 1 < len(clusters) < ds.n_tasks
        identity = result.feature_partitions[0]
        assert identity.clusters == tuple((k,) for k in range(ds.n_features))
        assert all(fp is identity for fp in result.feature_partitions)
        for (y, X), cluster in zip(apply_partition(ds, result), clusters):
            slab = np.mean([ds.per_task_features[k] for k in cluster], axis=0)
            assert np.array_equal(X, slab)
            assert np.array_equal(y, ds.targets[:, list(cluster)].mean(axis=1))

    @pytest.mark.parametrize("epsilon", [0.0, 1e6, -1e6])
    def test_replayable(self, epsilon):
        ds = make_homogeneous(seed=4)
        result = nonlin_ctfa_homogeneous(ds, epsilon, seed=2)
        assert_replay(ds, result)
        assert_reevaluates(ds, result)


class MeanSlabMerges:
    """The homogeneous comparisons taking ``np.mean`` over the members' slabs.

    The reference for :func:`mtaggr.aggregation._slab_targets`, which forms
    the same mean slab and mean target from running sums.
    """

    def __init__(self, slabs, Y, epsilon):
        self.slabs, self.Y, self.epsilon = slabs, Y, epsilon
        self.singles = [threshold_fit(slab, Y[:, t]) for t, slab in enumerate(slabs)]

    def open(self, i):
        self.p_fit = self.singles[i]

    def compare(self, closed, members, visited, j):
        extended = members + (j,)
        slab_ag = np.mean([self.slabs[k] for k in extended], axis=0)
        self.ag_fit = threshold_fit(slab_ag, self.Y[:, extended].mean(axis=1))
        return compute_threshold_targets(
            self.p_fit, self.singles[j], self.ag_fit, self.epsilon,
            cluster_id=len(closed), candidate=j, members=members,
        )

    def accept(self, members, j):
        self.p_fit = self.ag_fit


@st.composite
def slab_sets(draw):
    """Tasks drawn as copies of a few base tasks, and a walk order.

    A task either repeats its base exactly (slab and target) or adds noise
    of a drawn scale.  Entries are multiples of 1/4, so that a mean over
    copies of one slab is that slab to the bit, and some zeros are -0.0.
    Returns the slabs, the targets, the order and each task's copy group
    (exact copies share one; a noisy task has its own).
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    L = draw(st.integers(9, 14))
    n, D = draw(st.integers(12, 30)), draw(st.integers(1, 4))
    n_bases = draw(st.integers(1, 3))
    bases = []
    for _ in range(n_bases):
        slab = rng.integers(-8, 9, (n, D)) / 4.0
        slab[(slab == 0.0) & (rng.random((n, D)) < 0.5)] = -0.0
        y = slab @ rng.integers(-4, 5, D) + rng.integers(-4, 5, n) / 4.0
        bases.append((slab, y))
    noise = draw(st.sampled_from([0.0, 0.0, 0.25, 1.0]))
    slabs, cols, groups = [], [], []
    for t in range(L):
        b = draw(st.integers(0, n_bases - 1))
        slab, y = bases[b]
        if noise and draw(st.booleans()):
            slab = slab + np.round(noise * rng.standard_normal((n, D)) * 4) / 4
            y = y + np.round(noise * rng.standard_normal(n) * 4) / 4
            groups.append(n_bases + t)
        else:
            groups.append(b)
        slabs.append(slab.copy())
        cols.append(y)
    order = draw(st.permutations(range(L)))
    return tuple(slabs), np.column_stack(cols), list(order), groups


def assert_slab_walk_matches_mean(slabs, Y, order, epsilon):
    """The slab walk against :class:`MeanSlabMerges`: same decisions, scalars to tolerance."""
    clusters, trace = aggregation._greedy(
        order, aggregation._slab_targets(slabs, Y, epsilon)
    )
    want_clusters, want_trace = aggregation._greedy(
        order, MeanSlabMerges(slabs, Y, epsilon)
    )
    assert clusters == want_clusters
    assert len(trace) == len(want_trace)
    for got, want in zip(trace, want_trace):
        assert (got.cluster_id, got.candidate, got.members, got.accepted,
                got.note) == (want.cluster_id, want.candidate, want.members,
                              want.accepted, want.note)
        for f in TRACE_SCALARS:
            a, b = getattr(got, f), getattr(want, f)
            assert (a is None) == (b is None), f
            if a is not None:
                assert np.isclose(a, b, rtol=REPLAY_RTOL, atol=REPLAY_ATOL), f
    return clusters, trace


class TestSlabWalk:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(slab_sets(), st.sampled_from([0.0, 0.0, 0.05, 1.0, 1e6, -1e6]))
    def test_running_sum_matches_mean_of_members(self, tasks, epsilon):
        slabs, Y, order, groups = tasks
        _, trace = assert_slab_walk_matches_mean(slabs, Y, order, epsilon)
        for got in trace:
            # Exact copies tie, and so merge at any epsilon >= 0.
            copies = {groups[k] for k in got.members + (got.candidate,)}
            if epsilon >= 0.0 and len(copies) == 1:
                assert got.accepted and got.threshold1 == got.threshold2 == 0.0

    def test_running_sums_that_round_match_mean_of_members(self):
        # The entries of slab_sets are multiples of 1/4, so none of their
        # sums rounds.  Standard-normal slabs and targets round in every
        # sum, and at epsilon 1e6 every merge is accepted, so one cluster
        # grows to all 24 tasks.
        rng = np.random.default_rng(28)
        L, n, D = 24, 30, 3
        slabs = tuple(rng.standard_normal((n, D)) for _ in range(L))
        Y = rng.standard_normal((n, L))
        order = [int(t) for t in rng.permutation(L)]
        clusters, trace = assert_slab_walk_matches_mean(slabs, Y, order, 1e6)
        assert max(map(len, clusters)) > 8
        assert len(trace) == L - 1 and all(r.accepted for r in trace)


def with_duplicate_slab_column(ds, k=3, source=1):
    """A copy of a slab dataset whose every slab repeats column ``source`` at ``k``."""
    slabs = []
    for slab in ds.per_task_features:
        slab = slab.copy()
        slab[:, k] = slab[:, source]
        slabs.append(slab)
    return Dataset(ds.features, ds.targets, per_task_features=tuple(slabs))


class TestSlabFits:
    """The homogeneous walk fits from Gram matrices; lstsq only as fallback."""

    def walk(self, ds, epsilon, monkeypatch):
        calls = count_calls(monkeypatch, np.linalg, "lstsq")
        solves = count_calls(monkeypatch, np.linalg, "eigvalsh")
        result = nonlin_ctfa_homogeneous(ds, epsilon, seed=1)
        monkeypatch.undo()
        # The gate proves its bounds with Cholesky factorizations alone.
        assert solves == []
        assert 0 < sum(r.accepted for r in result.trace) < len(result.trace)
        assert_reevaluates(ds, result)
        return result, calls

    def test_well_conditioned_slabs_make_no_lstsq_call(self, monkeypatch):
        # Thresholds here lie near 1.2; this tolerance accepts 2 of 4.
        _, calls = self.walk(make_homogeneous(seed=6), 1.2, monkeypatch)
        assert calls == []

    def test_slabs_in_mixed_units_make_no_lstsq_call(self, monkeypatch):
        # Every task measures feature k in the same unit, 10^(+-3) apart
        # across features.  Scaling a column changes no fit, so the walk
        # records the decisions of the unscaled slabs.
        ds = make_homogeneous(seed=6)
        units = 10.0 ** np.linspace(-3, 3, ds.n_features)
        slabs = tuple(slab * units for slab in ds.per_task_features)
        scaled = Dataset(ds.features * units, ds.targets, per_task_features=slabs)
        result, calls = self.walk(scaled, 1.2, monkeypatch)
        assert calls == []
        want = nonlin_ctfa_homogeneous(ds, 1.2, seed=1)
        assert result.task_partition.clusters == want.task_partition.clusters
        for r, w in zip(result.trace, want.trace, strict=True):
            assert (r.candidate, r.accepted) == (w.candidate, w.accepted)
            for f in TRACE_SCALARS:
                a, b = getattr(r, f), getattr(w, f)
                assert (a is None) == (b is None), f
                if a is not None:
                    assert np.isclose(a, b, rtol=REPLAY_RTOL, atol=REPLAY_ATOL), f

    @pytest.mark.parametrize("cond, calls", [(0.999, 0), (1.001, 1)])
    def test_slab_fit_gates_on_max_cond(self, cond, calls, monkeypatch):
        # Unit-norm columns, orthogonal but for one pair whose correlation
        # sets cond to cond * MAX_COND, then spread over 10^(+-2): the gate
        # reads the former and is blind to the latter.
        rng = np.random.default_rng(8)
        Q, _ = np.linalg.qr(rng.standard_normal((60, 8)))
        k = cond * linstats.MAX_COND
        rho = (k**2 - 1) / (k**2 + 1)
        Q[:, 1] = rho * Q[:, 0] + np.sqrt(1 - rho**2) * Q[:, 1]
        X = Q * np.geomspace(1e-2, 1e2, 8)
        y = rng.standard_normal(60)
        made = count_calls(monkeypatch, np.linalg, "lstsq")
        solves = count_calls(monkeypatch, np.linalg, "eigvalsh")
        linstats._slab_fit(X, y)
        assert len(made) == calls and solves == []

    def test_every_fit_of_rank_deficient_slabs_falls_back(self, monkeypatch):
        ds = with_duplicate_slab_column(make_homogeneous(seed=6))
        # This tolerance accepts 2 of 5.  Every slab declines at the Cholesky
        # test, with no eigenvalue solve (see walk).
        result, calls = self.walk(ds, 0.7, monkeypatch)
        # One fit per task, then one per comparison.
        assert len(calls) == ds.n_tasks + len(result.trace)


class TestComparisonBudget:
    def test_randomized_budget_bounds(self):
        rng = np.random.default_rng(30)
        for trial in range(100):
            L = int(rng.integers(2, 6))
            D = int(rng.integers(2, 7))
            n = int(rng.integers(30, 60))
            eps1 = float(rng.choice([-1.0, 0.0, 0.5, 1e6]))
            eps2 = float(rng.choice([-1.0, 0.0, 1e-3, 1e6]))
            cfg = SynthConfig(
                n_tasks=L, n_features=D, n_train=n, n_test=n,
                sigma=float(rng.uniform(0.2, 3.0)), feature_std=1.0,
            )
            train, _, _ = generate(cfg, trial)
            ds = center(train).dataset
            result = nonlin_ctfa(ds, eps1, eps2, seed=trial)
            phase1 = sum(1 for r in result.trace if r.phase == 1)
            assert phase1 <= L * (L - 1) // 2
            l = result.task_partition.n_clusters
            phase2_total = sum(1 for r in result.trace if r.phase == 2)
            assert phase2_total <= l * D * (D - 1) // 2
            for ci in range(l):
                per = sum(
                    1 for r in result.trace
                    if r.phase == 2 and r.task_cluster == ci
                )
                assert per <= D * (D - 1) // 2


def test_result_refuses_feature_partitions_of_different_sizes():
    tasks = TaskPartition([[0], [1]], 2)
    with pytest.raises(ValidationError, match="different sizes"):
        AggregationResult(tasks, (FeaturePartition([[0]], 1),
                                  FeaturePartition([[0], [1]], 2)), (), 0, 0.0, 0.0,
                          fingerprint="hand-built")
    same = (FeaturePartition([[0, 1]], 2), FeaturePartition([[0], [1]], 2))
    result = AggregationResult(tasks, same, (), 0, 0.0, 0.0, fingerprint="hand-built")
    assert result.feature_partitions == same


@pytest.mark.parametrize("fingerprint", [None, 7, b"n=2"])
def test_result_refuses_a_fingerprint_that_is_not_a_string(fingerprint):
    # result_from_json refuses such a fingerprint, so no result may carry one.
    tasks = TaskPartition([[0], [1]], 2)
    features = (FeaturePartition([[0]], 1),) * 2
    with pytest.raises(ValidationError, match="fingerprint must be a string"):
        AggregationResult(tasks, features, (), 0, 0.0, 0.0, fingerprint=fingerprint)
    with pytest.raises(TypeError, match="fingerprint"):
        AggregationResult(tasks, features, (), 0, 0.0, 0.0)


def test_single_task_residuals_are_the_walks_and_stay_in_memory():
    rng = np.random.default_rng(6)
    n, D, L = 40, 3, 4
    slabs = tuple(rng.standard_normal((n, D)) for _ in range(L))
    Y = np.column_stack([s @ [1.0, 0.5, -1.0] + rng.standard_normal(n) for s in slabs])
    raw = Dataset(np.mean(slabs, axis=0), Y, per_task_features=slabs)
    ds = center(raw).dataset
    for result in (nonlin_ctfa(ds, 0.0, 1e-4, seed=1),
                   nonlin_ctfa_homogeneous(ds, 0.0, seed=1)):
        slabs = ds.per_task_features if result.homogeneous else (ds.features,) * L
        want = [threshold_fit(X, ds.targets[:, t]).ss_res for t, X in enumerate(slabs)]
        np.testing.assert_allclose(result.single_ss_res, want, rtol=REPLAY_RTOL,
                                   atol=REPLAY_ATOL)
        text = result_to_json(result)
        assert "single" not in text
        loaded = result_from_json(text, ds)
        assert loaded.single_ss_res is None and loaded == result
        assert "single_ss_res" not in repr(result)


class TestRecordTypes:
    def test_fit_carries_the_statistics_of_its_fields(self):
        fit = ThresholdFit(3.0, 2.0, 10, 4, 4)
        assert fit.var_res == 3.0 / 6 and fit.varf == 1.5 and fit.r2 == 0.75
        assert ThresholdFit(30.0, 2.0, 10, 4, 4).varf == 0.0  # floored
        assert ThresholdFit(1.0, 0.0, 10, 4, 4)[5:] == (None, None, None)
        moved = fit._replace(ss_res=6.0, d=3)
        assert moved == ThresholdFit(6.0, 2.0, 10, 3, 4)
        assert pickle.loads(pickle.dumps(fit)) == fit
        with pytest.raises(ValueError):
            fit._replace(r2=0.5)
        with pytest.raises(AttributeError):
            fit.r2 = 0.5

    def test_report_checks_phase_and_members_on_every_construction(self):
        report = ThresholdReport(phase=1, cluster_id=0, candidate=3, members=[np.int64(2)],
                                 epsilon=0.0, accepted=True, threshold1=0.1)
        assert report.members == (2,) and type(report.members[0]) is int
        assert report.note is None and report.r_gap is None
        shared = (4, 1)
        assert report._replace(members=shared).members is shared
        assert pickle.loads(pickle.dumps(report)) == report
        with pytest.raises(ValidationError):
            ThresholdReport(3, 0, 3, (2,), 0.0, True)
        with pytest.raises(ValidationError):
            report._replace(phase=0)
        with pytest.raises(AttributeError):
            report.accepted = False

    def test_document_keys_follow_the_record_fields(self):
        report = ThresholdReport(2, 1, 5, (0, 4), 1e-4, False, r_p=0.5, r_ag=0.25,
                                 r_gap=0.25, task_cluster=0)
        doc = aggregation._report_to_dict(report)
        assert list(doc) == ["cluster" if f == "cluster_id" else f
                             for f in ThresholdReport._fields if f != "members"]
        assert doc["cluster"] == 1 and doc["r_gap"] == 0.25 and doc["r_j"] is None
        assert aggregation._report_from_dict(doc, report.members) == report


# The phase-I comparisons as they were made before each fit carried its
# statistics: ``y.mean()`` in the target variance, every statistic
# recomputed on every comparison, and the record built by keyword.  The
# oracle for _TargetMerges and compute_threshold_targets, which must decide
# the same and record the same bits.


class LegacyFit(NamedTuple):
    ss_res: float
    target_variance: float
    n: int
    d: int
    rank: int


class LegacyStats(NamedTuple):
    r2: float
    var_res: float
    varf: float


def legacy_fit_stats(fit):
    if fit.target_variance <= 0.0:
        raise ZeroVarianceError("target has zero variance; R^2 is undefined")
    dof = max(fit.n - fit.rank, 1)
    var_res = fit.ss_res / dof
    varf = max(0.0, fit.target_variance - var_res)
    return LegacyStats(varf / fit.target_variance, var_res, varf)


def legacy_threshold_targets(p, j, ag, epsilon, *, cluster_id, candidate, members):
    base = dict(phase=1, cluster_id=cluster_id, candidate=candidate, members=members,
                epsilon=float(epsilon))
    try:
        sp, sj, sag = legacy_fit_stats(p), legacy_fit_stats(j), legacy_fit_stats(ag)
    except ZeroVarianceError as exc:
        return ThresholdReport(accepted=False, note=str(exc), **base)
    scale = ag.d / (ag.n - 1)
    penalty = 0.5 * (sp.r2 * sp.varf + sj.r2 * sj.varf) - sag.r2 * sag.varf
    t1 = scale * (sag.var_res - sp.var_res) + penalty
    t2 = scale * (sag.var_res - sj.var_res) + penalty
    return ThresholdReport(
        accepted=bool(t1 <= epsilon and t2 <= epsilon),
        r_p=sp.r2, r_j=sj.r2, r_ag=sag.r2,
        var_p=sp.var_res, var_j=sj.var_res, var_ag=sag.var_res,
        varf_p=sp.varf, varf_j=sj.varf, varf_ag=sag.varf,
        threshold1=t1, threshold2=t2, **base,
    )


class LegacyTargetMerges:
    def __init__(self, X, Z, epsilon):
        U, s, _ = np.linalg.svd(X, full_matrices=False)
        self.rank = int(np.count_nonzero(s > np.finfo(float).eps * max(X.shape) * s[0]))
        Q = U[:, : self.rank]
        self.d, self.Z, self.epsilon = X.shape[1], Z, epsilon
        self.E = [z - Q @ (Q.T @ z) for z in Z.T]
        self.singles = [self._fit(z, e) for z, e in zip(Z.T, self.E)]

    def _fit(self, z, e):
        dev = z - z.mean()
        variance = float(dev @ dev) / (z.shape[0] - 1)
        return LegacyFit(float(e @ e), variance, z.shape[0], self.d, self.rank)

    def open(self, i):
        self.size = 1
        self.sum_z = self.Z[:, i].copy()
        self.sum_e = self.E[i].copy()
        self.p_fit = self.singles[i]

    def compare(self, closed, members, visited, j):
        z = self.Z[:, j]
        size = self.size + 1
        self.ag_fit = self._fit((self.sum_z + z) / size, (self.sum_e + self.E[j]) / size)
        return legacy_threshold_targets(
            self.p_fit, self.singles[j], self.ag_fit, self.epsilon,
            cluster_id=len(closed), candidate=j, members=members,
        )

    def accept(self, members, j):
        self.sum_z += self.Z[:, j]
        self.sum_e += self.E[j]
        self.size += 1
        self.p_fit = self.ag_fit


def bits(value):
    return None if value is None else float(value).hex()


def assert_walk_matches_legacy(X, Z, order, epsilon):
    """The phase-I walk against the legacy one: same decisions, the same bits."""
    model = aggregation._shared_targets(X, Z, epsilon, linstats._factor(X))
    got = aggregation._greedy(order, model)
    want = aggregation._greedy(order, LegacyTargetMerges(X, Z, epsilon))
    assert got[0] == want[0]
    assert len(got[1]) == len(want[1])
    for new, old in zip(*(trace for _, trace in (got, want))):
        assert type(new) is ThresholdReport
        assert new._replace(**{f: bits(getattr(new, f)) for f in TRACE_SCALARS}) == \
            old._replace(**{f: bits(getattr(old, f)) for f in TRACE_SCALARS})
    return got


@st.composite
def target_sets(draw):
    """Targets on one feature matrix: copies of a few bases, noisy or exact, and zeros.

    Returns X, the target matrix, a walk order, and each target's copy group
    (exact copies share one; a noisy target and the constant one have their
    own, -1 for the constant).
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    T = draw(st.integers(1, 40))
    n, D = draw(st.integers(3, 30), label="n"), draw(st.integers(1, 6), label="D")
    X = rng.standard_normal((n, D))
    X -= X.mean(axis=0)
    bases = [X @ rng.standard_normal(D) + rng.standard_normal(n)
             for _ in range(draw(st.integers(1, 3)))]
    noise = draw(st.sampled_from([0.0, 0.1, 1.0]))
    cols, groups = [], []
    for t in range(T):
        kind = draw(st.sampled_from(["copy", "copy", "noisy", "constant"]))
        b = draw(st.integers(0, len(bases) - 1))
        if kind == "constant":
            cols.append(np.zeros(n))
            groups.append(-1)
        elif kind == "noisy" and noise:
            cols.append(bases[b] + noise * rng.standard_normal(n))
            groups.append(len(bases) + t)
        else:
            cols.append(bases[b].copy())
            groups.append(b)
    Z = np.column_stack(cols)
    Z -= Z.mean(axis=0)
    return X, Z, list(draw(st.permutations(range(T)))), groups


class TestTargetMergesAgainstLegacy:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(target_sets(), st.sampled_from([0.0, 0.0, 0.05, 1.0, 1e6, -1e6, 1e300, -1e300]))
    def test_same_decisions_and_bits(self, targets, epsilon):
        X, Z, order, groups = targets
        _, trace = assert_walk_matches_legacy(X, Z, order, epsilon)
        for r in trace:
            copies = {groups[k] for k in r.members + (r.candidate,)}
            if -1 in copies:
                assert not r.accepted and r.note is not None
            elif len(copies) == 1:
                # Exact copies tie up to the rounding of their mean.
                assert abs(r.threshold1) < 1e-12 and abs(r.threshold2) < 1e-12

    @pytest.mark.parametrize("case", ["duplicates", "constant", "single"])
    def test_edge_cases(self, case):
        rng = np.random.default_rng(21)
        X = centered(rng.standard_normal((40, 3)))
        y = centered(X @ [1.0, 0.5, 0.2] + rng.standard_normal(40))
        Z = {"duplicates": np.column_stack([y, y, y, -y]),
             "constant": np.column_stack([y, np.zeros(40), y]),
             "single": y[:, None]}[case]
        order = list(range(Z.shape[1]))
        for epsilon in (0.0, 1e6, -1e6):
            clusters, trace = assert_walk_matches_legacy(X, Z, order, epsilon)
            if case == "duplicates" and epsilon == 0.0:
                assert clusters == ((0, 1, 2), (3,))
                assert all(r.note is None for r in trace)
            if case == "constant":
                # The zero target gets the note on every comparison it is in.
                assert [r.note is not None for r in trace] == [
                    1 in r.members + (r.candidate,) for r in trace]
            if case == "single":
                assert (clusters, trace) == (((0,),), [])
