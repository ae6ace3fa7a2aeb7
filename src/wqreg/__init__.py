"""Weighted quantile regression for longitudinal data.

Estimators for conditional quantiles of repeated-measures responses built
on induced-smoothed estimating equations: a working-independence fit (WI),
a weighted fit with constant score variance (PQR), and a weighted fit with
empirically estimated score variances (AQR), all with sandwich standard
errors. A seeded Monte Carlo harness reproduces the supporting simulation
studies at configurable scale.

The names below are the documented surface. The kernels, weights and
data generators are reached through their modules (``wqreg.solver``,
``wqreg.correlation``, ``wqreg.sparsity``, ``wqreg.simulation``).
"""

from .exceptions import DataError, SchemaError, SolverError, WqregError
from .model import FitResult, LongitudinalDataset
from .simulation import SimConfig, run_study
from .solver import confidence_intervals, fit, fit_many

__version__ = "0.1.0"

__all__ = [
    "DataError",
    "FitResult",
    "LongitudinalDataset",
    "SchemaError",
    "SimConfig",
    "SolverError",
    "WqregError",
    "confidence_intervals",
    "fit",
    "fit_many",
    "run_study",
]
