"""Induced-smoothed estimating equations and the three fitting drivers.

The estimating function, its Jacobian and the score covariance are shared
by all methods; WI, PQR and AQR differ only in the weights they feed in
(Gamma, C, sigma). One Newton loop with a joint Omega update drives all of
them, and every converged fit gets one refinement phase: a final Newton
pass at frozen weights so that ``beta_root`` is a machine-precision root of
the smoothed equation.

The WI estimate itself is the exact minimizer of the check-loss objective,
solved as the Koenker-Bassett linear program. Where that minimizer is not
unique the optimal set is a face of the LP, and the WI fit returns the mean
of the face's extreme points along each orthonormal direction in which it is
flat; on an edge this is the midpoint. The Newton loop of the WI fit, started
at the LP solution, supplies Omega for the sandwich standard errors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import null_space
from scipy.optimize import linprog
from scipy.stats import norm

from .correlation import (
    ScoreVariances,
    WorkingCovariance,
    assemble_working_covariance,
    build_stationary_correlation,
    estimate_lag_correlations,
    sigma_constant,
    sigma_empirical,
    standardized_scores,
)
from .exceptions import DataError, SolverError
from .model import (
    FitResult,
    LongitudinalDataset,
    check_tau,
    smoothed_score,
    smoothed_score_density,
)
from .sparsity import (
    SparsityWeights,
    estimate_sparsity_hk,
    hall_sheather_bandwidth,
    identity_sparsity,
)

__all__ = [
    "METHODS",
    "SolverConfig",
    "SmoothingState",
    "smoothed_estimating_function",
    "smoothed_jacobian",
    "score_covariance",
    "sandwich_covariance",
    "fit",
    "fit_many",
    "confidence_intervals",
]

METHODS = ("WI", "PQR", "AQR")

COND_MAX = 1e12  # Jacobian condition limit; beyond it the system is singular
RADII_FLOOR = 1e-12
MAX_HALVINGS = 20
INFLATE_MAX = 60  # radius inflation attempts before giving up on a step
FLAT_TOL = 1e-9  # LP dual values this far inside (tau - 1, tau) mark zero residuals


@dataclass
class SolverConfig:
    """Tolerances and switches of the outer Newton iteration."""

    max_outer_iterations: int = 100
    beta_tolerance: float = 1e-8  # sup-norm of the beta step
    omega_tolerance: float = 1e-6  # relative Frobenius change of Omega
    gamma_mode: str = "hk"  # "hk" or "identity"

    def __post_init__(self):
        if self.max_outer_iterations < 1:
            raise ValueError("max_outer_iterations must be at least 1")
        if self.beta_tolerance <= 0 or self.omega_tolerance <= 0:
            raise ValueError("tolerances must be positive")
        if self.gamma_mode not in ("hk", "identity"):
            raise ValueError(f"unknown gamma_mode {self.gamma_mode!r}")


@dataclass
class SmoothingState:
    """Omega together with the per-observation radii it induces."""

    omega: np.ndarray
    radii: np.ndarray

    @classmethod
    def from_omega(cls, dataset: LongitudinalDataset, omega: np.ndarray) -> "SmoothingState":
        return cls(omega, _radii(dataset.X, omega))


def _radii(X: np.ndarray, omega: np.ndarray) -> np.ndarray:
    r = np.sqrt(np.maximum(np.einsum("ij,jk,ik->i", X, omega, X), 0.0))
    return np.maximum(r, RADII_FLOOR)


# ---------------------------------------------------------------------------
# estimating function, Jacobian, score covariance
# ---------------------------------------------------------------------------


def smoothed_estimating_function(
    dataset: LongitudinalDataset,
    beta: np.ndarray,
    state: SmoothingState,
    gamma: SparsityWeights,
    sigma: WorkingCovariance,
    tau: float,
) -> np.ndarray:
    """U~(beta) = sum_i X_i' Gamma_i Sigma_i^{-1} psi~(y_i - X_i beta)."""
    psi = smoothed_score(dataset.y - dataset.X @ beta, state.radii, tau)
    U = np.zeros(dataset.p)
    for n, _, obs, Xg, _ in dataset.groups():
        q = sigma.solve_vectors(n, psi[obs])
        U += np.einsum("gnp,gn->p", Xg, gamma.values[obs] * q)
    return U


def smoothed_jacobian(
    dataset: LongitudinalDataset,
    beta: np.ndarray,
    state: SmoothingState,
    gamma: SparsityWeights,
    sigma: WorkingCovariance,
    tau: float,
) -> np.ndarray:
    """G~ = sum_i X_i' Gamma_i Sigma_i^{-1} Lambda~_i X_i (minus dU/dbeta).

    Raises SolverError when the assembled matrix has condition number above
    1e12; the smoothed system is then numerically singular.
    """
    lam = smoothed_score_density(dataset.y - dataset.X @ beta, state.radii)
    G = np.zeros((dataset.p, dataset.p))
    for n, _, obs, Xg, _ in dataset.groups():
        M = sigma.solve_blocks(n, lam[obs][:, :, None] * Xg)
        G += np.einsum("gnp,gnq->pq", gamma.values[obs][:, :, None] * Xg, M)
    # the negated comparison also catches a NaN condition number (zero matrix)
    if not np.all(np.isfinite(G)) or not (np.linalg.cond(G) <= COND_MAX):
        raise SolverError("smoothed Jacobian is numerically singular")
    return G


def score_covariance(
    dataset: LongitudinalDataset,
    beta: np.ndarray,
    state: SmoothingState,
    gamma: SparsityWeights,
    sigma: WorkingCovariance,
    tau: float,
) -> np.ndarray:
    """cov(U~) = sum_i v_i v_i' with v_i = X_i' Gamma_i Sigma_i^{-1} psi~_i."""
    psi = smoothed_score(dataset.y - dataset.X @ beta, state.radii, tau)
    V = np.zeros((dataset.p, dataset.p))
    for n, _, obs, Xg, _ in dataset.groups():
        q = sigma.solve_vectors(n, psi[obs])
        v = np.einsum("gnp,gn->gp", gamma.values[obs][:, :, None] * Xg, q)
        V += v.T @ v
    return V


def _sandwich(G: np.ndarray, V: np.ndarray) -> np.ndarray:
    # Omega = G^{-1} V G^{-T}, computed through two solves
    W = np.linalg.solve(G, V)
    omega = np.linalg.solve(G, W.T).T
    return 0.5 * (omega + omega.T)


def sandwich_covariance(
    dataset: LongitudinalDataset,
    beta: np.ndarray,
    state: SmoothingState,
    gamma: SparsityWeights,
    sigma: WorkingCovariance,
    tau: float,
) -> np.ndarray:
    """Sandwich estimate G~^{-1} cov(U~) G~^{-T} of the covariance of beta."""
    G = smoothed_jacobian(dataset, beta, state, gamma, sigma, tau)
    V = score_covariance(dataset, beta, state, gamma, sigma, tau)
    return _sandwich(G, V)


def confidence_intervals(result: FitResult, level: float = 0.95) -> np.ndarray:
    """Per-coefficient Wald intervals beta_k +/- z (1+level)/2 * SE_k."""
    if not 0.0 < level < 1.0:
        raise ValueError("confidence level must lie in (0, 1)")
    z = norm.ppf(0.5 * (1.0 + level))
    half = z * result.std_errors
    return np.column_stack([result.beta - half, result.beta + half])


# ---------------------------------------------------------------------------
# weight construction per method
# ---------------------------------------------------------------------------


def _wi_sigma(dataset: LongitudinalDataset, tau: float) -> WorkingCovariance:
    variances = ScoreVariances(np.full(dataset.max_n, sigma_constant(tau)))
    return assemble_working_covariance(variances, np.eye(dataset.max_n), dataset)


def _weighted_sigma(dataset: LongitudinalDataset, beta, tau: float, method: str):
    if method == "AQR":
        variances = sigma_empirical(dataset, beta, tau)
    else:
        variances = ScoreVariances(np.full(dataset.max_n, sigma_constant(tau)))
    if dataset.max_n >= 2:
        scores = standardized_scores(dataset, beta, tau, variances)
        rho = estimate_lag_correlations(dataset, scores)
    else:
        rho = np.empty(0)
    C = build_stationary_correlation(rho, dataset.max_n)
    return assemble_working_covariance(variances, C, dataset, rho), rho


# ---------------------------------------------------------------------------
# Newton loop with Omega update
# ---------------------------------------------------------------------------


def _jacobian_with_inflation(dataset, beta, state, gamma, sigma, tau):
    """Jacobian guarded against kernel underflow.

    When every residual sits far outside its smoothing radius the Gaussian
    kernel underflows and G~ degenerates. Inflating Omega widens the radii
    until the system is invertible again; the subsequent Omega update
    overwrites the inflated value.
    """
    for _ in range(INFLATE_MAX):
        try:
            return smoothed_jacobian(dataset, beta, state, gamma, sigma, tau), state
        except SolverError:
            state = SmoothingState.from_omega(dataset, state.omega * 10.0)
    raise SolverError("smoothed Jacobian stayed singular under radius inflation")


def _newton_loop(dataset, tau, method, config, beta0, gamma):
    beta = beta0.copy()
    state = SmoothingState.from_omega(dataset, np.eye(dataset.p) / dataset.m)
    sigma = None
    rho_hat = np.empty(0)
    converged = False
    iterations = 0
    for it in range(config.max_outer_iterations):
        iterations = it + 1
        if method == "WI":
            if sigma is None:
                sigma = _wi_sigma(dataset, tau)
        else:
            sigma, rho_hat = _weighted_sigma(dataset, beta, tau, method)
        U = smoothed_estimating_function(dataset, beta, state, gamma, sigma, tau)
        G, state = _jacobian_with_inflation(dataset, beta, state, gamma, sigma, tau)
        step = np.linalg.solve(G, U)
        norm0 = np.linalg.norm(U)
        scale = 1.0
        for _ in range(MAX_HALVINGS):
            trial = smoothed_estimating_function(
                dataset, beta + scale * step, state, gamma, sigma, tau
            )
            if np.linalg.norm(trial) <= norm0:
                break
            scale *= 0.5
        # accepted regardless after the last halving
        beta_new = beta + scale * step
        V = score_covariance(dataset, beta, state, gamma, sigma, tau)
        omega_new = _sandwich(G, V)
        delta_beta = float(np.max(np.abs(beta_new - beta)))
        denom = max(np.linalg.norm(state.omega), 1e-300)
        delta_omega = float(np.linalg.norm(omega_new - state.omega) / denom)
        beta = beta_new
        state = SmoothingState.from_omega(dataset, omega_new)
        if delta_beta < config.beta_tolerance and delta_omega < config.omega_tolerance:
            converged = True
            break
    return beta, state, sigma, rho_hat, iterations, converged


def _refine_root(dataset, beta, state, gamma, sigma, tau):
    """Newton at frozen weights until the smoothed score is a numerical zero."""
    best_beta = beta.copy()
    best_norm = np.inf
    for _ in range(30):
        U = smoothed_estimating_function(dataset, beta, state, gamma, sigma, tau)
        sup = float(np.max(np.abs(U)))
        if sup < best_norm:
            best_norm, best_beta = sup, beta.copy()
        if sup <= 1e-9:
            break
        try:
            G = smoothed_jacobian(dataset, beta, state, gamma, sigma, tau)
            step = np.linalg.solve(G, U)
        except (SolverError, np.linalg.LinAlgError):
            break
        norm0 = np.linalg.norm(U)
        scale, moved = 1.0, False
        for _ in range(MAX_HALVINGS):
            trial = smoothed_estimating_function(
                dataset, beta + scale * step, state, gamma, sigma, tau
            )
            if np.linalg.norm(trial) < norm0:
                beta = beta + scale * step
                moved = True
                break
            scale *= 0.5
        if not moved:
            break
    return best_beta


# ---------------------------------------------------------------------------
# exact WI point estimate
# ---------------------------------------------------------------------------


def _check_loss_minimizer(X: np.ndarray, y: np.ndarray, tau: float) -> np.ndarray:
    """Exact minimizer of the check-loss objective (Koenker & Bassett, 1978).

    HiGHS solves the dual LP, max y'd subject to X'd = 0 and
    tau - 1 <= d <= tau; beta is the negated multiplier of X'd = 0. The
    minimizer is not unique when the optimal set is a face of the LP. With
    Z the rows whose d lies strictly inside its bounds and r = y - X b, that
    face is X_Z b = y_Z, r_i >= 0 where d_i = tau, r_i <= 0 where
    d_i = tau - 1. For each orthonormal direction v of the null space of
    X_Z, two small LPs find the face's extreme points in v'b; their mean is
    returned, which on an edge is its midpoint.
    """
    p = X.shape[1]
    res = linprog(-y, A_eq=X.T, b_eq=np.zeros(p), bounds=(tau - 1.0, tau), method="highs")
    if res.status != 0:
        raise SolverError(f"check-loss LP failed: {res.message}")
    beta, d = -res.eqlin.marginals, res.x
    null = null_space(X[(d > tau - 1.0 + FLAT_TOL) & (d < tau - FLAT_TOL)])
    if null.shape[1] == 0:
        return beta
    # b = beta + null @ t keeps X_Z b = y_Z; the rows at a bound keep the sign of r
    r, A = y - X @ beta, X @ null
    upper, lower = d >= tau - FLAT_TOL, d <= tau - 1.0 + FLAT_TOL
    A_ub = np.vstack([A[upper], -A[lower]])
    b_ub = np.concatenate([np.maximum(r[upper], 0.0), -np.minimum(r[lower], 0.0)])
    ends = []
    for c in np.vstack([np.eye(null.shape[1]), -np.eye(null.shape[1])]):
        end = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=(None, None), method="highs")
        if end.status != 0:
            raise SolverError(f"check-loss tie LP failed: {end.message}")
        ends.append(end.x)
    return beta + null @ np.mean(ends, axis=0)


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------


def _fit_result(
    dataset, tau, method, beta, beta_root, state, gamma, sigma, rho_hat, iterations, converged
):
    """FitResult with sandwich SEs at beta; a failed sandwich gives NaN SEs
    and clears ``converged``, so a converged fit always has finite SEs."""
    try:
        omega = sandwich_covariance(dataset, beta, state, gamma, sigma, tau)
        std_errors = np.sqrt(np.maximum(np.diag(omega), 0.0))
    except (SolverError, np.linalg.LinAlgError):
        omega = np.full((dataset.p, dataset.p), np.nan)
        std_errors = np.full(dataset.p, np.nan)
        converged = False
    result = FitResult(
        beta=beta,
        omega=omega,
        std_errors=std_errors,
        iterations=iterations,
        converged=converged,
        tau=tau,
        method=method,
        rho_hat=rho_hat,
        beta_root=beta_root,
        n_obs=dataset.n_obs,
    )
    result._context = {"state": state, "gamma": gamma, "sigma": sigma}
    return result


def _fit_wi(dataset: LongitudinalDataset, tau: float, config: SolverConfig) -> FitResult:
    beta_hat = _check_loss_minimizer(dataset.X, dataset.y, tau)
    gamma = identity_sparsity(dataset)
    beta_root, state, sigma, _, iterations, converged = _newton_loop(
        dataset, tau, "WI", config, beta_hat, gamma
    )
    if converged:
        beta_root = _refine_root(dataset, beta_root, state, gamma, sigma, tau)
    return _fit_result(
        dataset, tau, "WI", beta_hat, beta_root, state, gamma, sigma, np.empty(0),
        iterations, converged,
    )


def _fit_weighted(
    dataset: LongitudinalDataset,
    tau: float,
    method: str,
    config: SolverConfig,
    beta0: np.ndarray,
    gamma: SparsityWeights,
) -> FitResult:
    beta, state, sigma, rho_hat, iterations, converged = _newton_loop(
        dataset, tau, method, config, beta0, gamma
    )
    if converged:
        beta = _refine_root(dataset, beta, state, gamma, sigma, tau)
    return _fit_result(
        dataset, tau, method, beta, beta.copy(), state, gamma, sigma, rho_hat,
        iterations, converged,
    )


def _gamma_for(dataset, tau, config) -> SparsityWeights:
    if config.gamma_mode == "identity":
        return identity_sparsity(dataset)
    h = hall_sheather_bandwidth(tau, dataset.n_obs)
    fit_lo = _fit_wi(dataset, tau - h, config)
    fit_hi = _fit_wi(dataset, tau + h, config)
    if not (fit_lo.converged and fit_hi.converged):
        # quantile-crossing or a failed auxiliary fit: fall back to unit
        # weights, which the estimator tolerates at some efficiency cost
        return identity_sparsity(dataset)
    return estimate_sparsity_hk(dataset, tau, h, fit_lo, fit_hi)


def fit_many(
    dataset: LongitudinalDataset,
    tau: float,
    methods,
    config: SolverConfig | None = None,
) -> dict:
    """Fit several methods at one tau, sharing the WI baseline and Gamma.

    Returns a dict keyed by canonical method name. The WI fit is always
    computed because it initializes the weighted methods.
    """
    tau = check_tau(tau)
    config = config or SolverConfig()
    wanted = [str(m).upper() for m in methods]
    for m in wanted:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}; expected one of {METHODS}")
    if dataset.n_obs <= dataset.p:
        raise DataError(f"need more observations ({dataset.n_obs}) than parameters ({dataset.p})")
    if np.linalg.matrix_rank(dataset.X) < dataset.p:
        raise DataError("stacked design matrix is rank deficient")
    results = {}
    wi = _fit_wi(dataset, tau, config)
    if "WI" in wanted:
        results["WI"] = wi
    weighted = [m for m in wanted if m != "WI"]
    if weighted:
        gamma = _gamma_for(dataset, tau, config)
        for method in weighted:
            results[method] = _fit_weighted(dataset, tau, method, config, wi.beta, gamma)
    return results


def fit(
    dataset: LongitudinalDataset,
    tau: float,
    method: str = "PQR",
    config: SolverConfig | None = None,
) -> FitResult:
    """Fit one quantile regression by the requested method."""
    return fit_many(dataset, tau, [method], config)[str(method).upper()]
