"""Brute-force reference implementations for the test suite.

Nothing here is a production code path. The exact WI fit enumerates all
p-subsets of observations, which is only viable on tiny instances; the
other oracles provide independent numbers for cross-checking the check
loss, the solver's Jacobian, the working covariance and the
lag-correlation estimator. Two kinds of helper are not oracles:
``subject_rows`` rebuilds per-subject views of a dataset, and the kernel
helpers compose the solver's private kernels into the estimating function,
its Jacobian and the score covariance for the tests that check them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from wqreg import solver
from wqreg.exceptions import DataError
from wqreg.model import LongitudinalDataset, Subject, check_tau

__all__ = [
    "OracleFit",
    "check_loss",
    "check_objective",
    "subject_matrix",
    "subject_rows",
    "smoothed_estimating_function",
    "smoothed_jacobian",
    "score_covariance",
    "exact_wi_fit",
    "finite_difference_jacobian",
    "indicator_correlation_oracle",
    "empirical_variance_oracle",
    "lag_correlation_oracle",
]

MAX_OBS = 40
MAX_DIM = 3


def check_loss(u, tau: float):
    """Check loss rho_tau(u) = u * (tau - I(u <= 0)); nonnegative."""
    u = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(u)):
        raise ValueError("check_loss requires finite input")
    return np.where(u <= 0.0, u * (tau - 1.0), u * tau)


def check_objective(X: np.ndarray, y: np.ndarray, beta: np.ndarray, tau: float) -> float:
    """Sum of check losses of the residuals y - X beta."""
    return float(check_loss(y - X @ beta, tau).sum())


def subject_matrix(cov, dataset: LongitudinalDataset, i: int) -> np.ndarray:
    """Dense Sigma_i of subject index i, rebuilt from the variances and the
    correlation a WorkingCovariance holds."""
    n = int(dataset.lengths[i])
    sd = np.sqrt(cov.variances.per_position[:n])
    return sd[:, None] * cov.correlation[:n, :n] * sd[None, :]


def subject_rows(dataset: LongitudinalDataset) -> list:
    """The dataset's subjects, rebuilt from its stacked rows."""
    bounds = zip(dataset.ids, dataset.offsets[:-1], dataset.offsets[1:])
    return [Subject(sid, dataset.X[a:b], dataset.y[a:b]) for sid, a, b in bounds]


# U~, G~ and cov(U~) composed from the solver's private kernels
def smoothed_estimating_function(dataset, beta, state, gamma, sigma, tau):
    A = solver._design(dataset, gamma, sigma)
    return solver._score_terms(dataset, beta, state, A, sigma, tau).sum(axis=1)


def smoothed_jacobian(dataset, beta, state, gamma, sigma, tau):
    return solver._jacobian(dataset, beta, state, solver._design(dataset, gamma, sigma), sigma)[0]


def score_covariance(dataset, beta, state, gamma, sigma, tau):
    v = solver._score_terms(dataset, beta, state, solver._design(dataset, gamma, sigma), sigma, tau)
    return v @ v.T


@dataclass
class OracleFit:
    beta: np.ndarray
    objective: float


def exact_wi_fit(dataset: LongitudinalDataset, tau: float) -> OracleFit:
    """Exact minimizer of the check-loss objective by subset enumeration.

    A minimizer interpolates p observations, so every nonsingular p-subset
    yields one candidate. Ties are broken by lexicographically smallest
    beta. Guarded to N <= 40 and p <= 3.
    """
    tau = check_tau(tau)
    X, y = dataset.X, dataset.y
    n_obs, p = X.shape
    if n_obs > MAX_OBS or p > MAX_DIM:
        raise ValueError(f"oracle limited to N <= {MAX_OBS}, p <= {MAX_DIM}")
    row_norms = np.linalg.norm(X, axis=1)
    best_beta, best_obj = None, np.inf
    for idx in itertools.combinations(range(n_obs), p):
        sub = X[list(idx)]
        scale = np.prod(row_norms[list(idx)])
        if scale == 0.0 or abs(np.linalg.det(sub)) <= 1e-12 * scale:
            continue
        beta = np.linalg.solve(sub, y[list(idx)])
        obj = check_objective(X, y, beta, tau)
        if best_beta is None or obj < best_obj - 1e-12 * (1.0 + abs(best_obj)):
            best_beta, best_obj = beta, obj
        elif abs(obj - best_obj) <= 1e-12 * (1.0 + abs(best_obj)):
            if tuple(beta) < tuple(best_beta):
                best_beta = beta
    if best_beta is None:
        raise DataError("no nonsingular observation subset; design is rank deficient")
    return OracleFit(best_beta, best_obj)


def finite_difference_jacobian(func, beta: np.ndarray, step: float) -> np.ndarray:
    """Central-difference Jacobian of a vector-valued function at beta."""
    if step <= 0.0:
        raise ValueError("step must be positive")
    beta = np.asarray(beta, dtype=float)
    cols = []
    for k in range(beta.shape[0]):
        e = np.zeros_like(beta)
        e[k] = step
        cols.append((np.asarray(func(beta + e)) - np.asarray(func(beta - e))) / (2.0 * step))
    return np.column_stack(cols)


def indicator_correlation_oracle(rho: float) -> float:
    """Correlation of I(e1 < 0), I(e2 < 0) for standard bivariate normal.

    Closed form (2 / pi) * arcsin(rho); the limit the lag-correlation
    estimator recovers at the median.
    """
    rho = float(rho)
    if not abs(rho) < 1.0:
        raise ValueError("rho must lie in (-1, 1)")
    return 2.0 / np.pi * float(np.arcsin(rho))


def empirical_variance_oracle(dataset: LongitudinalDataset, beta: np.ndarray) -> np.ndarray:
    """p_j (1 - p_j) per occasion from per-position counts over the flat rows,
    before the SIGMA_MIN floor."""
    neg = dataset.y - dataset.X @ beta < 0.0
    counts = np.bincount(dataset.positions, minlength=dataset.max_n)
    hits = np.bincount(dataset.positions, weights=neg.astype(float), minlength=dataset.max_n)
    p_hat = hits / counts
    return p_hat * (1.0 - p_hat)


def lag_correlation_oracle(dataset: LongitudinalDataset, scores: np.ndarray) -> np.ndarray:
    """Lag correlations from one pass over the flat rows per lag, unclamped.

    Flat row k + l belongs to row k's subject exactly when it sits at
    position l or later.
    """
    scores = np.asarray(scores, dtype=float)
    positions = dataset.positions
    rho = np.empty(dataset.max_n - 1)
    for lag in range(1, dataset.max_n):
        pair = positions[lag:] >= lag
        rho[lag - 1] = (scores[:-lag] * scores[lag:]) @ pair / np.count_nonzero(pair)
    return rho / (float(scores @ scores) / dataset.n_obs)
