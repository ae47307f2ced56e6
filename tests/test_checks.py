"""Smoke coverage of the verification-check plumbing (full budgets run in acceptance)."""

import json

import pytest

from mtaggr.checks import CHECKS, VerifyBudget, check_closure, check_noise_variance, run_checks
from mtaggr.errors import ValidationError


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


@pytest.mark.parametrize("jobs", [0, -3])
def test_run_checks_rejects_jobs_below_one(jobs):
    with pytest.raises(ValidationError, match="jobs"):
        run_checks(["noise_variance"], VerifyBudget.quick(), jobs=jobs)


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
