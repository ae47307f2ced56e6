"""Two-phase mean aggregation of targets and features for multi-task regression.

The library clusters regression targets by greedy mean-aggregation, then
reduces each cluster's feature space the same way, with accept/reject
decisions driven by closed-form asymptotic bias and variance expressions for
linear models.  A Monte-Carlo oracle suite verifies those expressions.
"""

from .aggregation import (
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
    replay,
    result_from_json,
    result_to_json,
    threshold_fit,
)
from .data import (
    CenterResult,
    Dataset,
    FeaturePartition,
    TaskPartition,
    center,
    load_dataset,
    save_dataset,
)
from .errors import NumericalError, ValidationError, ZeroVarianceError
from .linstats import Moments, OlsFit, moments, mse, nrmse, ols_fit, r2_score, var_res
from .oracle import (
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
from .synth import SynthConfig, SyntheticTask, TrialMetrics, generate, run_trial, sweep

__version__ = "0.1.0"

__all__ = [
    "AggregationResult",
    "BiasDecomposition",
    "BiasVarianceEstimate",
    "CenterResult",
    "Dataset",
    "FeaturePartition",
    "Moments",
    "NoiseModel",
    "NumericalError",
    "OlsFit",
    "SynthConfig",
    "SyntheticTask",
    "TaskPartition",
    "ThresholdFit",
    "ThresholdReport",
    "TrialMetrics",
    "ValidationError",
    "ZeroVarianceError",
    "aggregated_noise_variance",
    "aggregation_loop",
    "apply_partition",
    "assert_replay",
    "center",
    "coefficient_covariance_check",
    "compute_threshold_features",
    "compute_threshold_targets",
    "delta_mse_check",
    "generate",
    "load_dataset",
    "moments",
    "monte_carlo_bias_variance",
    "mse",
    "nonlin_ctfa",
    "nonlin_ctfa_homogeneous",
    "nrmse",
    "ols_fit",
    "population_bias_decomposition",
    "r2_score",
    "reevaluate_report",
    "replay",
    "result_from_json",
    "result_to_json",
    "run_trial",
    "save_dataset",
    "sweep",
    "theoretical_bias_multi",
    "theoretical_bias_single",
    "theoretical_variance",
    "threshold_fit",
    "var_res",
]
