"""Smoke coverage of the verification-check plumbing (full budgets run in acceptance)."""

import copy
import json
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mtaggr import checks, oracle
from mtaggr.aggregation import REPLAY_ATOL, REPLAY_RTOL
from mtaggr.checks import (
    CHECKS,
    VerifyBudget,
    _summary,
    check_closure,
    check_merge_guarantee_features,
    check_merge_guarantee_targets,
    check_noise_variance,
    run_checks,
)
from mtaggr.errors import ValidationError

DATA = Path(__file__).parent / "data"


def test_noise_variance_check_is_exact():
    result = check_noise_variance(VerifyBudget.quick())
    assert result.passed
    assert all(d["passed"] for d in result.details)


def test_closure_check_quick():
    result = check_closure(VerifyBudget.quick(), seed=1)
    assert result.passed


def test_run_checks_rejects_unknown_names():
    with pytest.raises(ValidationError, match="unknown check"):
        run_checks(["nope"])


@pytest.mark.parametrize("field, value", [
    ("draws", 0), ("draws", -1), ("draws", 2.0), ("draws", True), ("bootstrap", -1),
    ("replicates", 99), ("n_pop", 9_999), ("n_pop", 1e4),
    ("coefficient_replicates", 1), ("bias_generators", 0), ("bias_partitions", 0),
])
def test_budget_rejects_what_no_check_can_run_with(field, value):
    with pytest.raises(ValidationError, match=field):
        replace(VerifyBudget.quick(), **{field: value})


def test_merge_guarantee_populations_do_not_follow_n_pop(monkeypatch):
    rows, worsened = [], checks._worsened

    def counted(signal, *args):
        rows.append(len(signal))
        return worsened(signal, *args)

    monkeypatch.setattr(checks, "_worsened", counted)
    run_checks(["merge_guarantee_targets", "merge_guarantee_features"],
               VerifyBudget(draws=1, n_pop=20_000))
    assert rows and set(rows) == {100_000}


@pytest.mark.parametrize("seed", [1.7, 1.0, True, np.float64(2.0), "1"])
def test_run_checks_refuses_a_seed_that_is_not_an_integer(seed):
    with pytest.raises(ValidationError, match="seed must be an integer"):
        run_checks(["noise_variance"], VerifyBudget.quick(), seed=seed)


SMALLEST = VerifyBudget(100, 10_000, draws=1, bootstrap=0, coefficient_replicates=2,
                        bias_generators=1, bias_partitions=1)


@pytest.mark.parametrize("name", list(CHECKS))
def test_each_check_takes_a_negative_seed_modulo_2_to_the_64(name):
    check = CHECKS[name]
    assert check(SMALLEST, seed=-1).to_dict() == check(SMALLEST, seed=2**64 - 1).to_dict()


def test_budget_accepts_the_smallest_runnable_budget():
    (result,) = run_checks(["merge_guarantee_features"], SMALLEST)
    assert result.replicates == 1


def test_registry_names_are_stable():
    assert set(CHECKS) == {
        "noise_variance",
        "variance_formula",
        "bias_single_task",
        "bias_aggregated",
        "closure",
        "delta_mse",
        "coefficient_covariance",
        "merge_guarantee_targets",
        "merge_guarantee_features",
    }


def test_results_serialize_to_json():
    result = check_noise_variance(VerifyBudget.quick())
    text = json.dumps(result.to_dict())
    assert "noise_variance" in text


def _assert_same_report(got, want, path="report"):
    """Keys, strings, bools and ints exactly; floats within the replay tolerance."""
    if isinstance(want, dict):
        assert list(got) == list(want), path
        for key in want:
            _assert_same_report(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same_report(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, float), (path, got)
        assert math.isclose(got, want, rel_tol=REPLAY_RTOL, abs_tol=REPLAY_ATOL), (
            path, got, want)
    else:
        assert type(got) is type(want) and got == want, (path, got, want)


def test_quick_reports_at_seed_3_match_the_recorded_ones():
    want = json.loads((DATA / "verify_quick_seed3.json").read_text(encoding="utf-8"))
    got = [r.to_dict() for r in run_checks(None, VerifyBudget.quick(), seed=3)]
    # Round-trip through JSON so the comparison sees what a report file stores.
    _assert_same_report(json.loads(json.dumps(got)), want)


def test_full_budget_reports_at_seed_0_match_the_recorded_ones():
    # The quick budget never reaches 500 replicates or 50 merge draws.
    names = ["closure", "merge_guarantee_targets", "merge_guarantee_features"]
    want = json.loads((DATA / "verify_full_seed0_streamed.json").read_text(encoding="utf-8"))
    got = [r.to_dict() for r in run_checks(names, VerifyBudget(), seed=0)]
    _assert_same_report(json.loads(json.dumps(got)), want)


def unblocked_worsened(signal, sigma, pred_new, pred_base, rng):
    """The paired population comparison as it was before it was built in place."""
    eps = rng.standard_normal(signal.shape[0]) * sigma
    y = signal + eps
    diff = (pred_new - y) ** 2 - (pred_base - y) ** 2
    n = len(diff)
    se = float(diff.std(ddof=1) / np.sqrt(n))
    base = float(np.mean((pred_base - y) ** 2))
    return float(diff.mean()) > 3 * se + 1e-12 * max(1.0, base)


# The smallest block the rule makes, three groups, and a block of every row.
BLOCK_SIZES = [oracle._BLOCK_ALIGN, 3 * oracle._BLOCK_ALIGN, 1 << 30]


@pytest.mark.parametrize("check", [check_merge_guarantee_targets,
                                   check_merge_guarantee_features])
def test_merge_guarantee_populations_have_the_bits_of_one_block(check, monkeypatch):
    """Blocked populations and in-place comparisons against one draw and one product.

    Each population is compared, bit for bit, with the products taken on the
    whole population drawn at once from a copy of the stream, and each
    comparison's decision with the expression it replaced, at populations of
    10 001 rows (a one-row tail after blocks of 8) and 10 007.
    """
    population, worsened = checks._population, checks._worsened
    seen = []

    def whole(rng, D, k, products):
        X = copy.deepcopy(rng).standard_normal((checks._MERGE_POPULATION, D))
        want = np.array(products(X))
        got = population(rng, D, k, products)
        seen.append(got.shape == (k, X.shape[0]) and got.tobytes() == want.tobytes())
        return got

    def compared(signal, sigma, pred_new, pred_base, rng):
        want = unblocked_worsened(signal, sigma, pred_new, pred_base, copy.deepcopy(rng))
        got = worsened(signal, sigma, pred_new, pred_base, rng)
        seen.append(got == want)
        return got

    monkeypatch.setattr(checks, "_population", whole)
    monkeypatch.setattr(checks, "_worsened", compared)
    budget = replace(VerifyBudget.quick(), draws=3)
    for n_pop in (10_001, 10_007):
        monkeypatch.setattr(checks, "_MERGE_POPULATION", n_pop)
        results = []
        for rows in BLOCK_SIZES:
            monkeypatch.setattr(oracle, "_BLOCK_BYTES", rows * 8 * 5)  # rows of 5 doubles
            results.append(check(budget, seed=6))
        assert results[0] == results[1] == results[2]
    assert seen and all(seen)


def _traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("check, bound_mb", [
    # One replicates x n_eval block of the total is 40 MB at this budget.
    (check_closure, 8),
    # One population of 100 000 x 5 normals is 4 MB.
    (check_merge_guarantee_features, 8),
    (check_merge_guarantee_targets, 9),
])
def test_full_budget_peak_stays_low(check, bound_mb):
    assert _traced_peak(lambda: check(VerifyBudget(), seed=0)) < bound_mb * 2**20


def _case(theoretical, empirical, se, passed):
    return {"theoretical": theoretical, "empirical": empirical,
            "standard_error": se, "passed": passed}


def test_summary_fails_when_one_case_fails():
    cases = [_case(1.0, 1.0, 0.1, True), _case(2.0, 5.0, 0.1, False),
             _case(3.0, 3.0, 0.1, True)]
    result = _summary("demo", cases, 7, margin=lambda c: abs(c["empirical"] - c["theoretical"]))
    assert not result.passed
    assert (result.theoretical, result.empirical, result.standard_error) == (2.0, 5.0, 0.1)
    assert result.replicates == 7
    assert result.details == tuple(cases)


def test_summary_reports_the_first_of_equal_margins():
    cases = [_case(1.0, 1.5, 0.1, True), _case(2.0, 2.5, 0.2, True),
             _case(3.0, 3.1, 0.3, True)]
    result = _summary("demo", cases, 1, margin=lambda c: abs(c["empirical"] - c["theoretical"]))
    assert result.passed
    assert (result.theoretical, result.empirical, result.standard_error) == (1.0, 1.5, 0.1)

