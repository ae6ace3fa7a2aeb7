"""Brute-force reference implementations for the test suite.

Nothing here is a production code path. The exact WI fit enumerates all
p-subsets of observations, which is only viable on tiny instances; the
other oracles provide independent numbers for cross-checking the check
loss, the solver's Jacobian, the working covariance and the
lag-correlation estimator; ``newton_loop_reference`` is the weighted
Newton loop without its memo of working covariances; ``sample_errors``
draws one subject's errors, the reference for the streams of
``generate_dataset``. Three kinds of helper are not oracles:
``subject_rows`` yields per-subject views of a dataset, the kernel
helpers compose the solver's private kernels into the estimating function,
its Jacobian, the score covariance and the sandwich for the tests that
check them, and ``fit_state`` rebuilds the smoothing state, Gamma and Sigma
a fit ended with through the solver's own stages.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from wqreg import simulation, solver
from wqreg.correlation import ScoreVariances, assemble_working_covariance, sigma_constant
from wqreg.exceptions import DataError
from wqreg.model import LongitudinalDataset, check_tau
from wqreg.sparsity import identity_sparsity

__all__ = [
    "OracleFit",
    "check_loss",
    "check_objective",
    "subject_matrix",
    "subject_rows",
    "flat_positions",
    "smoothed_estimating_function",
    "smoothed_jacobian",
    "score_covariance",
    "sandwich_covariance",
    "newton_loop_reference",
    "fit_state",
    "sample_errors",
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


def subject_matrix(variances, correlation, dataset: LongitudinalDataset, i: int) -> np.ndarray:
    """Dense Sigma_i = A_i^{1/2} C_i A_i^{1/2} of subject index i, built from
    ScoreVariances and the correlation matrix a working covariance was given."""
    n = int(dataset.lengths[i])
    sd = np.sqrt(variances.per_position[:n])
    return sd[:, None] * np.asarray(correlation)[:n, :n] * sd[None, :]


def subject_rows(dataset: LongitudinalDataset):
    """Each subject's (id, X_i, y_i), sliced from the stacked rows."""
    bounds = zip(dataset.ids, dataset.offsets[:-1], dataset.offsets[1:])
    for sid, a, b in bounds:
        yield sid, dataset.X[a:b], dataset.y[a:b]


# U~, G~ and cov(U~) composed from the solver's private kernels
def smoothed_estimating_function(dataset, beta, state, gamma, sigma, tau):
    A = solver._design(dataset, gamma, sigma)
    return solver._score_terms(dataset, residual(dataset, beta), state, A, sigma, tau).sum(axis=1)


def smoothed_jacobian(dataset, beta, state, gamma, sigma, tau):
    A = solver._design(dataset, gamma, sigma)
    return solver._jacobian(dataset, residual(dataset, beta), state, A, sigma)[0]


def score_covariance(dataset, beta, state, gamma, sigma, tau):
    A = solver._design(dataset, gamma, sigma)
    v = solver._score_terms(dataset, residual(dataset, beta), state, A, sigma, tau)
    return v @ v.T


def sandwich_covariance(dataset, beta, state, gamma, sigma, tau):
    """Sandwich estimate G~^{-1} cov(U~) G~^{-T} of the covariance of beta."""
    A = solver._design(dataset, gamma, sigma)
    r = residual(dataset, beta)
    G_inv = solver._jacobian(dataset, r, state, A, sigma)[1]
    return solver._sandwich(G_inv, solver._score_terms(dataset, r, state, A, sigma, tau))


def residual(dataset, beta):
    return dataset.y - dataset.X @ beta


def newton_loop_reference(dataset, tau, method, beta0, gamma):
    """``solver._newton_loop`` with Sigma, rho_hat and the whitened design
    rebuilt at every iterate and each iterate's residual formed from beta."""
    beta = beta0.copy()
    state = solver._initial_state(dataset)
    converged = False
    for it in range(solver.MAX_OUTER_ITERATIONS):
        r = residual(dataset, beta)
        sigma, rho_hat = solver._weighted_sigma(dataset, r, tau, method)
        A = solver._design(dataset, gamma, sigma)
        G_inv, v, at_G, state, delta_omega = solver._omega_update(dataset, r, state, A, sigma, tau)
        beta_new = solver._newton_step(dataset, beta, v.sum(axis=1), G_inv, at_G, A, sigma, tau)[0]
        delta_beta = float(np.max(np.abs(beta_new - beta)))
        beta = beta_new
        if delta_beta < solver.BETA_TOLERANCE and delta_omega < solver.OMEGA_TOLERANCE:
            converged = True
            break
    return beta, state, sigma, rho_hat, it + 1, converged, residual(dataset, beta), A


def fit_state(dataset, tau, result, gamma_mode="hk"):
    """(SmoothingState, Gamma, Sigma) that the fit ``result`` ended with.

    WI: the state at the reported Omega, unit Gamma and the constant Sigma.
    PQR and AQR: the last state and Sigma of the Newton loop, started from
    the check-loss minimizer with the Gamma of ``gamma_mode``. Both paths
    are deterministic, so they reproduce the fit's arrays exactly.
    """
    tau = check_tau(tau)
    if result.method == "WI":
        variances = ScoreVariances(np.full(dataset.max_n, sigma_constant(tau)))
        sigma = assemble_working_covariance(variances, np.eye(dataset.max_n), dataset)
        state = solver.SmoothingState.from_omega(dataset, result.omega)
        return state, identity_sparsity(dataset), sigma
    beta0 = solver._check_loss_minimizer(dataset.X, dataset.y, tau)
    gamma = solver._gamma_for(dataset, tau, gamma_mode)
    loop = solver._newton_loop(dataset, tau, result.method, beta0, gamma)
    return loop[1], gamma, loop[2]


def sample_errors(case: str, rho: float, n: int, tau: float, rng: np.random.Generator) -> np.ndarray:
    """Draw one subject's error vector with marginal tau-quantile zero.

    normal: AR(1) Gaussian shifted by the normal tau-quantile.
    chisq:  Gaussian copula with chi-square(2) marginals.
    t:      AR(1) Gaussian over sqrt(W/3), one chi-square(3) W per subject.
    """
    canonical = str(case).lower()
    if canonical not in simulation.ERROR_CASES:
        raise ValueError(f"unknown error case {case!r}")
    tau = check_tau(tau)
    L = np.linalg.cholesky(simulation.ar1_covariance(rho, n))
    z, w = simulation._gaussian_draws(canonical, L, rng)
    return simulation._marginal_errors(canonical, z, w, tau)


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


def flat_positions(dataset: LongitudinalDataset) -> np.ndarray:
    """Occasion (0-based within its subject) of each stacked row."""
    return np.concatenate([np.arange(n) for n in dataset.lengths])


def empirical_variance_oracle(dataset: LongitudinalDataset, beta: np.ndarray) -> np.ndarray:
    """p_j (1 - p_j) per occasion from per-position counts over the flat rows,
    before the SIGMA_MIN floor."""
    neg = dataset.y - dataset.X @ beta < 0.0
    positions = flat_positions(dataset)
    counts = np.bincount(positions, minlength=dataset.max_n)
    hits = np.bincount(positions, weights=neg.astype(float), minlength=dataset.max_n)
    p_hat = hits / counts
    return p_hat * (1.0 - p_hat)


def lag_correlation_oracle(dataset: LongitudinalDataset, scores: np.ndarray) -> np.ndarray:
    """Lag correlations from one pass over the flat rows per lag, unclamped.

    Flat row k + l belongs to row k's subject exactly when it sits at
    position l or later.
    """
    scores = np.asarray(scores, dtype=float)
    positions = flat_positions(dataset)
    rho = np.empty(dataset.max_n - 1)
    for lag in range(1, dataset.max_n):
        pair = positions[lag:] >= lag
        rho[lag - 1] = (scores[:-lag] * scores[lag:]) @ pair / np.count_nonzero(pair)
    return rho / (float(scores @ scores) / dataset.n_obs)
