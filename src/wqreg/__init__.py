"""Weighted quantile regression for longitudinal data.

Estimators for conditional quantiles of repeated-measures responses built
on induced-smoothed estimating equations: a working-independence fit (WI),
a weighted fit with constant score variance (PQR), and a weighted fit with
empirically estimated score variances (AQR), all with sandwich standard
errors. A seeded Monte Carlo harness reproduces the supporting simulation
studies at configurable scale.
"""

from .correlation import (
    ScoreVariances,
    WorkingCovariance,
    assemble_working_covariance,
    build_stationary_correlation,
    estimate_lag_correlations,
    regularize_correlation,
    sigma_constant,
    sigma_empirical,
    standardized_scores,
)
from .exceptions import DataError, SchemaError, SolverError, WqregError
from .model import (
    FitResult,
    LongitudinalDataset,
    Subject,
    check_tau,
    score_psi,
    smoothed_score,
    smoothed_score_density,
)
from .simulation import (
    ReplicationRecord,
    SimConfig,
    SimStudyReport,
    SummaryRow,
    ar1_covariance,
    generate_dataset,
    run_study,
    sample_errors,
    summarize,
)
from .solver import (
    METHODS,
    SmoothingState,
    SolverConfig,
    confidence_intervals,
    fit,
    fit_many,
    sandwich_covariance,
    score_covariance,
    smoothed_estimating_function,
    smoothed_jacobian,
)
from .sparsity import (
    SparsityWeights,
    estimate_sparsity_hk,
    hall_sheather_bandwidth,
    identity_sparsity,
)

__version__ = "0.1.0"

__all__ = [
    "DataError",
    "FitResult",
    "LongitudinalDataset",
    "METHODS",
    "SchemaError",
    "ScoreVariances",
    "ReplicationRecord",
    "SimConfig",
    "SimStudyReport",
    "SummaryRow",
    "SmoothingState",
    "SolverConfig",
    "SolverError",
    "SparsityWeights",
    "Subject",
    "WorkingCovariance",
    "WqregError",
    "ar1_covariance",
    "assemble_working_covariance",
    "build_stationary_correlation",
    "check_tau",
    "confidence_intervals",
    "estimate_lag_correlations",
    "estimate_sparsity_hk",
    "fit",
    "fit_many",
    "generate_dataset",
    "hall_sheather_bandwidth",
    "identity_sparsity",
    "regularize_correlation",
    "run_study",
    "sample_errors",
    "sandwich_covariance",
    "score_covariance",
    "sigma_constant",
    "sigma_empirical",
    "smoothed_estimating_function",
    "smoothed_jacobian",
    "smoothed_score",
    "smoothed_score_density",
    "standardized_scores",
    "summarize",
    "score_psi",
]
