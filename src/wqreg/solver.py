"""Induced-smoothed estimating equations and the three fitting drivers.

The estimating function, its Jacobian and the score covariance are shared
by all methods; WI, PQR and AQR differ only in the weights they feed in
(Gamma, C, sigma). Once per (Gamma, Sigma) the kernels form K, the rows of
K_i = Sigma_i^{-1} Gamma_i X_i in stacked order, by two triangular products
with the working covariance's inverse factor. Then U~ = K' psi~ is one
product, G~ = (Lambda~ K)' X another, and the per-subject terms v_i = K_i'
psi~_i, whose outer products sum to cov(U~), are segment sums over the
subjects' rows. One Omega update, ``_omega_update``, forms G~^{-1}
(inflating Omega while G~ is singular), the terms v and the sandwich: WI
repeats it at a fixed beta, and the weighted fits (PQR, AQR) run one
Newton loop that steps with the same G~^{-1} and v. Sigma, its factor and
K depend on beta only through the signs of the residuals, so the loop
rebuilds them only for a sign pattern it has not just seen. A converged
weighted fit ends with Newton steps at frozen weights, so that beta is a
machine-precision root of the smoothed equation, and stays converged only
when sup |U~| reaches ROOT_TOLERANCE there; both take the same halving
line search. Each stage takes the residual and K its caller holds, down to
the final sandwich, which does not inflate Omega.

The WI estimate itself is the exact minimizer of the check-loss objective,
the Koenker-Bassett linear program. A Frisch-Newton interior point solves
its dual, and what it points at is checked exactly: a vertex, when the
check certifies it as the unique minimizer, or else the midpoint of an
optimal edge, when its p - 1 innermost rows, a dual solution on them and a
ratio test over the other rows certify that edge. Otherwise (faces of
dimension 2 or more, degenerate vertices and edges, a singular basis)
HiGHS solves the dual LP, and where the optimal set is a face the fit
returns the mean of the face's extreme points along each orthonormal
direction in which it is flat. The WI standard errors come from the fixed
point Omega = sandwich(beta, radii(Omega)) at that fixed beta. The
Hendricks-Koenker weights of PQR and AQR use the exact minimizers at
tau +/- h. Their LPs start from the fit at tau: the interior point first
runs on the rows whose residual ranks lie within h of the target level,
with the rows above them fixed at their upper bound, and the certificate
is checked on all rows; only when it fails does the full LP run.

The iteration cap and the two convergence tolerances are module constants:
implementation choices, not part of the estimator. The one setting is
``gamma_mode`` of ``fit`` and ``fit_many``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import null_space
from scipy.optimize import linprog
from scipy.special import ndtri

from .correlation import (
    ScoreVariances,
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
    estimate_sparsity_hk,
    hall_sheather_bandwidth,
    identity_sparsity,
)

__all__ = [
    "METHODS",
    "SmoothingState",
    "fit",
    "fit_many",
    "confidence_intervals",
]

METHODS = ("WI", "PQR", "AQR")

COND_MAX = 1e12  # Jacobian condition limit; beyond it the system is singular
MAX_OUTER_ITERATIONS = 100  # Newton iterations, or WI Omega updates, per fit
BETA_TOLERANCE = 1e-8  # sup-norm of the beta step
OMEGA_TOLERANCE = 1e-6  # relative Frobenius change of Omega
ROOT_TOLERANCE = 1e-9  # sup |U~| that a converged weighted fit's refinement must reach
GAMMA_MODES = ("hk", "identity")
RADII_FLOOR = 1e-12
MAX_HALVINGS = 20
# residual sign patterns whose Sigma, rho_hat and A the Newton loop keeps. On
# the replication benchmark's datasets 79-90% of iterations repeat one of the
# last two (mostly a period-2 cycle); a longer memory adds at most 11%.
SIGN_MEMO_DEPTH = 2
INFLATE_MAX = 60  # radius inflation attempts before giving up on a step
FLAT_TOL = 1e-9  # LP dual values this far inside (tau - 1, tau) mark zero residuals
# Frisch-Newton interior point: iteration cap, relative duality gap at which
# it stops, share of the step to the boundary taken, and the start's offset
# of the multipliers from the residuals' positive and negative parts
IPM_MAX_ITERATIONS = 100
IPM_GAP_TOL = 1e-8
IPM_STEP_FRACTION = 0.99995
IPM_START_SHIFT = 1e-3


@dataclass
class SmoothingState:
    """Omega together with the per-observation radii it induces."""

    omega: np.ndarray
    radii: np.ndarray

    @classmethod
    def from_omega(cls, dataset: LongitudinalDataset, omega: np.ndarray) -> "SmoothingState":
        return cls(omega, _radii(dataset.X, omega))


def _radii(X: np.ndarray, omega: np.ndarray) -> np.ndarray:
    r = np.sqrt(np.maximum(((X @ omega) * X) @ np.ones(X.shape[1]), 0.0))
    return np.maximum(r, RADII_FLOOR)


# ---------------------------------------------------------------------------
# estimating function, Jacobian, score covariance
# ---------------------------------------------------------------------------


def _design(dataset, gamma, sigma) -> np.ndarray:
    """K, the rows of the K_i = Sigma_i^{-1} Gamma_i X_i in stacked order,
    (n_obs, p); gamma holds the diagonals of the Gamma_i, one entry per
    stacked row."""
    return np.ascontiguousarray(sigma.solve(dataset.pad(gamma) * dataset.X_cols)[:, dataset.mask].T)


def _score(r, state, K, tau) -> np.ndarray:
    """U~ = sum_i K_i' psi~(r_i) = K' psi~(r); r = y - X beta."""
    return smoothed_score(r, state.radii, tau) @ K


def _score_terms(dataset, r, state, K, tau) -> np.ndarray:
    """Per-subject v_i = K_i' psi~(r_i), one column each: segment sums of
    the rows of K psi~(r) over the subjects; r = y - X beta."""
    psi = smoothed_score(r, state.radii, tau)
    return np.add.reduceat(K * psi[:, None], dataset.offsets[:-1], axis=0).T


def _inverse(G: np.ndarray) -> np.ndarray:
    """G^{-1}; SolverError when the 1-norm condition number of G exceeds COND_MAX."""
    try:
        G_inv = np.linalg.inv(G)
        # the negated comparison also catches a NaN condition number (G not finite)
        if np.linalg.norm(G, 1) * np.linalg.norm(G_inv, 1) <= COND_MAX:
            return G_inv
    except np.linalg.LinAlgError:
        pass
    raise SolverError("smoothed Jacobian is numerically singular")


def _jacobian(dataset, r, state, K):
    """G~ = sum_i K_i' Lambda~_i(r_i) X_i = (K Lambda~(r))' X and its inverse;
    r = y - X beta."""
    G = (K * smoothed_score_density(r, state.radii)[:, None]).T @ dataset.X
    return G, _inverse(G)


def _sandwich(G_inv: np.ndarray, v: np.ndarray) -> np.ndarray:
    # Omega = G^{-1} (v v') G^{-T} = H H', exactly symmetric
    H = G_inv @ v
    return H @ H.T


def confidence_intervals(result: FitResult, level: float = 0.95) -> np.ndarray:
    """Per-coefficient Wald intervals beta_k +/- z (1+level)/2 * SE_k."""
    if not 0.0 < level < 1.0:
        raise ValueError("confidence level must lie in (0, 1)")
    z = ndtri(0.5 * (1.0 + level))
    half = z * result.std_errors
    return np.column_stack([result.beta - half, result.beta + half])


# ---------------------------------------------------------------------------
# weight construction per method
# ---------------------------------------------------------------------------


def _weighted_sigma(dataset: LongitudinalDataset, r, tau: float, method: str):
    """Working covariance and lag correlations at the residual r = y - X beta."""
    R = dataset.pad(r)
    if method == "AQR":
        variances = sigma_empirical(dataset, R)
    else:
        variances = ScoreVariances(np.full(dataset.max_n, sigma_constant(tau)))
    if dataset.max_n >= 2:
        rho = estimate_lag_correlations(dataset, standardized_scores(dataset, R, tau, variances))
    else:
        rho = np.empty(0)
    C = build_stationary_correlation(rho, dataset.max_n)
    return assemble_working_covariance(variances, C, dataset), rho


# ---------------------------------------------------------------------------
# Omega update (WI, PQR, AQR) and Newton loop (PQR, AQR)
# ---------------------------------------------------------------------------


def _omega_update(dataset, r, state, K, tau):
    """One sandwich update of Omega at the residual r = y - X beta.

    When every residual sits far outside its smoothing radius the Gaussian
    kernel underflows and G~ degenerates; Omega is then inflated tenfold,
    widening the radii, until G~ is invertible (at most INFLATE_MAX times).
    U~'s terms v and the sandwich are taken at the radii G~ was formed at.
    Returns G~^{-1}, v, that state, the state at the new Omega, and the
    relative Frobenius change of Omega against the state G~ was formed at.
    """
    for _ in range(INFLATE_MAX):
        try:
            G_inv = _jacobian(dataset, r, state, K)[1]
            break
        except SolverError:
            state = SmoothingState.from_omega(dataset, state.omega * 10.0)
    else:
        raise SolverError("smoothed Jacobian stayed singular under radius inflation")
    v = _score_terms(dataset, r, state, K, tau)
    omega = _sandwich(G_inv, v)
    change = float(np.linalg.norm(omega - state.omega) / max(np.linalg.norm(state.omega), 1e-300))
    return G_inv, v, state, SmoothingState.from_omega(dataset, omega), change


def _initial_state(dataset):
    return SmoothingState.from_omega(dataset, np.eye(dataset.p) / dataset.m)


def _newton_step(dataset, beta, U, G_inv, state, K, tau):
    """Newton step for U~ = 0 from beta, halved until |U~| falls.

    Returns the accepted beta with U~ and the residual y - X beta there. When
    MAX_HALVINGS trials never lower |U~|, returns the step halved once more,
    None in place of U~, and its residual.
    """
    step = G_inv @ U
    norm0 = np.linalg.norm(U)
    for k in range(MAX_HALVINGS):
        trial = beta + 0.5**k * step
        r = dataset.y - dataset.X @ trial
        U_trial = _score(r, state, K, tau)
        if np.linalg.norm(U_trial) < norm0:
            return trial, U_trial, r
    trial = beta + 0.5**MAX_HALVINGS * step
    return trial, None, dataset.y - dataset.X @ trial


def _newton_loop(dataset, tau, method, beta0, gamma):
    """Newton in beta with Omega re-estimated at every iteration and Sigma
    whenever the residual sign pattern changes; a step whose halvings run out
    is taken anyway. Sigma, rho_hat and K are functions of the signs of
    y - X beta alone, so the last SIGN_MEMO_DEPTH patterns keep theirs.
    Returns the last iterate's beta with its residual r, and the last Sigma
    with its K."""
    beta = beta0.copy()
    r = dataset.y - dataset.X @ beta
    state = _initial_state(dataset)
    memo = {}  # sign pattern -> (sigma, rho_hat, K), least recently used first
    converged = False
    for it in range(MAX_OUTER_ITERATIONS):
        # a non-finite residual matches no key, so it meets the checks of _weighted_sigma
        key = (r < 0.0).tobytes() if np.all(np.isfinite(r)) else object()
        if key in memo:
            sigma, rho_hat, K = memo.pop(key)
        else:
            sigma, rho_hat = _weighted_sigma(dataset, r, tau, method)
            K = _design(dataset, gamma, sigma)
        memo[key] = sigma, rho_hat, K
        if len(memo) > SIGN_MEMO_DEPTH:
            del memo[next(iter(memo))]
        G_inv, v, at_G, state, delta_omega = _omega_update(dataset, r, state, K, tau)
        beta_new, _, r = _newton_step(dataset, beta, v.sum(axis=1), G_inv, at_G, K, tau)
        delta_beta = float(np.max(np.abs(beta_new - beta)))
        beta = beta_new
        if delta_beta < BETA_TOLERANCE and delta_omega < OMEGA_TOLERANCE:
            converged = True
            break
    return beta, state, sigma, rho_hat, it + 1, converged, r, K


def _refine_root(dataset, beta, r, K, state, tau):
    """Newton at frozen weights from beta, with r = y - X beta, until the
    smoothed score is a numerical zero; stops where the Jacobian is singular
    or the halvings run out, and returns the iterate with the smallest
    sup |U~|, its residual and that sup |U~|."""
    U = _score(r, state, K, tau)
    best = (beta, r, np.inf)
    for _ in range(30):
        sup = float(np.max(np.abs(U)))
        if sup < best[2]:
            best = (beta, r, sup)
        if sup <= ROOT_TOLERANCE:
            break
        try:
            G_inv = _jacobian(dataset, r, state, K)[1]
        except SolverError:
            break
        beta, U, r = _newton_step(dataset, beta, U, G_inv, state, K, tau)
        if U is None:
            break
    return best


# ---------------------------------------------------------------------------
# exact WI point estimate
# ---------------------------------------------------------------------------


def _max_step(u, du, v, dv) -> float:
    """Largest step in [0, 1] keeping the positive u + step du and v + step dv
    nonnegative; an entry that does not fall gives inf / |d| = inf, also at d = 0."""
    bound = np.minimum(np.where(du < 0.0, u, np.inf) / np.abs(du),
                       np.where(dv < 0.0, v, np.inf) / np.abs(dv))
    return min(1.0, float(bound.min()))


def _interior_point(X: np.ndarray, y: np.ndarray, tau: float, b: np.ndarray) -> np.ndarray:
    """Frisch-Newton interior point (Portnoy & Koenker, 1997) on the dual LP.

    Solves max y'a subject to X'a = b and 0 <= a <= 1 by Mehrotra
    predictor-corrector steps from a = 1 - tau and the least-squares beta.
    With b = (1 - tau) X'1 this is the dual of the check-loss problem in
    a = d + 1 - tau, and the start is feasible; a banded problem's start is
    not, so the steps also close the primal residual b - X'a, and the
    iteration stops once both it and the duality gap are small. The
    multipliers w of a <= 1 and z of a >= 0 satisfy w - z = y - X beta.
    Each step solves one p x p normal system; where it is singular, as it
    becomes near an edge on exact data, the last iterate is returned. Returns
    a, strictly inside (0, 1); raises LinAlgError once the duality gap is no
    longer finite, as on an infeasible banded problem.
    """
    N = X.shape[0]
    a = np.full(N, 1.0 - tau)
    s = np.full(N, tau)  # 1 - a, kept apart so that it stays positive
    beta = np.linalg.lstsq(X, y, rcond=None)[0]
    r = y - X @ beta
    shift = IPM_START_SHIFT * (1.0 + np.mean(np.abs(r)))
    w = np.maximum(r, 0.0) + shift
    z = np.maximum(-r, 0.0) + shift
    rb_tol = IPM_GAP_TOL * (1.0 + np.max(np.abs(b)))
    for _ in range(IPM_MAX_ITERATIONS):
        gap = a @ z + s @ w
        if not np.isfinite(gap):
            raise np.linalg.LinAlgError("interior point diverged")
        rb = b - X.T @ a
        if (gap <= IPM_GAP_TOL * (1.0 + abs(y @ a - (1.0 - tau) * y.sum()))
                and np.max(np.abs(rb)) <= rb_tol):
            break
        theta = 1.0 / (z / a + w / s)
        normal = (X * theta[:, None]).T @ X
        rc = y - X @ beta - w + z

        def direction(raz, rsw):
            q = rc + raz / a - rsw / s
            dbeta = np.linalg.solve(normal, X.T @ (theta * q) - rb)
            da = theta * (q - X @ dbeta)
            return da, dbeta, (raz - z * da) / a, (rsw + w * da) / s

        try:
            # predictor: the affine-scaling direction, then its centring target
            da, dbeta, dz, dw = direction(-a * z, -s * w)
            ap = _max_step(a, da, s, -da)
            ad = _max_step(z, dz, w, dw)
            gap_aff = (a + ap * da) @ (z + ad * dz) + (s - ap * da) @ (w + ad * dw)
            mu = (gap_aff / gap) ** 3 * gap / (2 * N)
            # corrector with the second-order terms of the predictor
            da, dbeta, dz, dw = direction(mu - a * z - da * dz, mu - s * w + da * dw)
        except np.linalg.LinAlgError:
            break
        ap = IPM_STEP_FRACTION * _max_step(a, da, s, -da)
        ad = IPM_STEP_FRACTION * _max_step(z, dz, w, dw)
        a, s = a + ap * da, s - ap * da
        beta, z, w = beta + ad * dbeta, z + ad * dz, w + ad * dw
    return a


def _innermost(a: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k entries of a furthest inside (0, 1)."""
    if k == 0:
        return np.empty(0, dtype=int)
    return np.argpartition(-np.minimum(a, 1.0 - a), k - 1)[:k]


def _well_conditioned(sv: np.ndarray) -> bool:
    # a dual solve carries a rounding error of about cond * eps; FLAT_TOL must cover it
    return sv.size == 0 or sv[-1] * FLAT_TOL > sv[0] * np.finfo(float).eps


def _certified_vertex(X: np.ndarray, y: np.ndarray, tau: float, a: np.ndarray) -> np.ndarray | None:
    """The vertex the dual point a points at, if it is the unique minimizer.

    The p rows that a leaves furthest inside (0, 1) give the vertex
    X_h b = y_h. With every other residual non-zero and d_o = tau or tau - 1
    by its sign, the d_h solving X_h'd_h = -X_o'd_o make d a dual solution;
    when they lie strictly inside (tau - 1, tau), every direction away from
    b raises the check loss, so b is the unique minimizer (Koenker &
    Bassett, 1978). Returns None when the check fails: at ties, degenerate
    vertices and (nearly) singular X_h.
    """
    h = _innermost(a, X.shape[1])
    Xh = X[h]
    if not _well_conditioned(np.linalg.svd(Xh, compute_uv=False)):
        return None
    beta = np.linalg.solve(Xh, y[h])
    other = np.ones(X.shape[0], dtype=bool)
    other[h] = False
    r = y[other] - X[other] @ beta
    if np.any(r == 0.0):
        return None
    d_h = np.linalg.solve(Xh.T, -(X[other].T @ np.where(r > 0.0, tau, tau - 1.0)))
    if np.all((d_h > tau - 1.0 + FLAT_TOL) & (d_h < tau - FLAT_TOL)):
        return beta
    return None


def _certified_edge(X: np.ndarray, y: np.ndarray, tau: float, a: np.ndarray) -> np.ndarray | None:
    """The midpoint of the optimal edge the dual point a points at, if certified.

    The p - 1 rows Z that a leaves furthest inside (0, 1) span a line
    b0 + t v on which X_Z b = y_Z. Every other row is put at the bound of
    (tau - 1, tau) that a is nearer to, d_o = tau above the line and
    tau - 1 below. When X_Z'd_Z = -X_o'd_o has a solution, which needs
    v'X_o'd_o = 0 (the check loss is flat along v), and that d_Z lies
    strictly inside (tau - 1, tau), d is a dual solution whose optimal
    primal set is the segment of the line on which every other residual
    keeps its side. A ratio test over those rows gives the segment's ends,
    and its midpoint is returned when every other residual there is
    clearly off zero. Returns None otherwise: at vertices, faces of
    dimension 2 or more, degenerate edges and (nearly) singular X_Z.
    """
    Z = _innermost(a, X.shape[1] - 1)
    U, sv, Vt = np.linalg.svd(X[Z])
    if not _well_conditioned(sv):
        return None
    v, b0 = Vt[-1], Vt[:-1].T @ ((U.T @ y[Z]) / sv)
    other = np.ones(X.shape[0], dtype=bool)
    other[Z] = False
    Xo, side = X[other], np.where(a[other] > 0.5, 1.0, -1.0)
    d_o, g = np.where(side > 0.0, tau, tau - 1.0), Xo @ v
    if abs(d_o @ g) > FLAT_TOL * (np.abs(d_o) @ np.abs(g)):
        return None
    d_Z = U @ ((Vt[:-1] @ -(Xo.T @ d_o)) / sv)
    if not np.all((d_Z > tau - 1.0 + FLAT_TOL) & (d_Z < tau - FLAT_TOL)):
        return None
    # side * (y_o - x_o'(b0 + t v)) >= 0 bounds t by e / f on each row
    e, f = side * (y[other] - Xo @ b0), side * g
    t_hi = np.min(e[f > 0.0] / f[f > 0.0], initial=np.inf)
    t_lo = np.max(e[f < 0.0] / f[f < 0.0], initial=-np.inf)
    if not -np.inf < t_lo < t_hi < np.inf:
        return None
    beta = b0 + 0.5 * (t_lo + t_hi) * v
    margin = FLAT_TOL * (np.abs(y[other]) + np.abs(Xo) @ np.abs(beta))
    if np.all(side * (y[other] - Xo @ beta) > margin):
        return beta
    return None


def _certified_minimizer(X, y, tau, a):
    """The certified vertex or edge midpoint that the dual point a points at, or None."""
    vertex = _certified_vertex(X, y, tau, a)
    return vertex if vertex is not None else _certified_edge(X, y, tau, a)


def _banded_minimizer(X, y, tau, r, h):
    """The certified minimizer from an interior point on the rows near tau.

    r is the residual of a fit at a quantile within h of tau. Rows whose
    rank in r lies within h of tau form the band; the rows above it are
    fixed at a = 1 through the right-hand side, those below it at a = 0
    (Portnoy & Koenker, 1997). The interior point runs on the band alone,
    and the certificate is checked on all rows. None when it fails.
    """
    N = X.shape[0]
    order = np.argsort(r, kind="stable")
    lo = int(np.clip(np.floor(N * (tau - h)), 0, N))
    hi = int(np.clip(np.ceil(N * (tau + h)), lo, N))
    band, above = order[lo:hi], order[hi:]
    a = np.zeros(N)
    a[above] = 1.0
    rhs = (1.0 - tau) * X.sum(axis=0) - X[above].sum(axis=0)
    try:
        # on an infeasible band the iterates run to the bounds and overflow
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            a[band] = _interior_point(X[band], y[band], tau, rhs)
    except np.linalg.LinAlgError:
        return None
    return _certified_minimizer(X, y, tau, a)


def _check_loss_minimizer(X: np.ndarray, y: np.ndarray, tau: float, pilot=None) -> np.ndarray:
    """Exact minimizer of the check-loss objective (Koenker & Bassett, 1978).

    The certified vertex or edge midpoint that the interior point points at,
    when there is one; with ``pilot`` = (r, h), the residual of a fit at a
    quantile within h of tau, the interior point first runs on the band of
    rows near tau. Otherwise HiGHS solves the dual LP, max y'd subject to
    X'd = 0 and tau - 1 <= d <= tau; beta is the negated multiplier of
    X'd = 0. The minimizer is not unique when the optimal set is a face of
    the LP. With Z the rows whose d lies strictly inside its bounds and
    r = y - X b, that face is X_Z b = y_Z, r_i >= 0 where d_i = tau,
    r_i <= 0 where d_i = tau - 1. For each orthonormal direction v of the
    null space of X_Z, two small LPs find the face's extreme points in v'b;
    their mean is returned, which on an edge is its midpoint.
    """
    beta = None if pilot is None else _banded_minimizer(X, y, tau, *pilot)
    if beta is None:
        try:
            a = _interior_point(X, y, tau, (1.0 - tau) * X.sum(axis=0))
        except np.linalg.LinAlgError:
            a = None
        beta = None if a is None else _certified_minimizer(X, y, tau, a)
    if beta is not None:
        return beta
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


def _fit_result(dataset, tau, method, beta, omega, rho_hat, iterations, converged):
    """FitResult with SEs from omega; a failed sandwich (omega None) gives NaN
    SEs and clears ``converged``, so a converged fit always has finite SEs."""
    if omega is None:
        omega = np.full((dataset.p, dataset.p), np.nan)
        converged = False
    return FitResult(
        beta=beta,
        omega=omega,
        std_errors=np.sqrt(np.maximum(np.diag(omega), 0.0)),
        iterations=iterations,
        converged=converged,
        tau=tau,
        method=method,
        rho_hat=rho_hat,
    )


def _fit_wi(dataset: LongitudinalDataset, tau: float, beta: np.ndarray) -> FitResult:
    """WI fit at the exact check-loss minimizer beta, SEs from the Omega fixed point.

    At the fixed beta, Omega <- sandwich(beta, radii(Omega)) from I/m until
    its relative change is below OMEGA_TOLERANCE; ``converged`` means Omega
    is a verified fixed point and ``iterations`` counts the updates.
    """
    gamma = identity_sparsity(dataset)
    variances = ScoreVariances(np.full(dataset.max_n, sigma_constant(tau)))
    sigma = assemble_working_covariance(variances, np.eye(dataset.max_n), dataset)
    K = _design(dataset, gamma, sigma)
    r = dataset.y - dataset.X @ beta
    state = _initial_state(dataset)
    for it in range(MAX_OUTER_ITERATIONS):
        state, change = _omega_update(dataset, r, state, K, tau)[3:]
        converged = change < OMEGA_TOLERANCE
        if converged:
            break
    return _fit_result(dataset, tau, "WI", beta, state.omega, np.empty(0), it + 1, converged)


def _fit_weighted(dataset, tau, method, beta0, gamma) -> FitResult:
    """PQR or AQR fit; ``converged`` means that the Newton loop stopped and
    that the root refinement reached ROOT_TOLERANCE."""
    beta, state, _, rho_hat, iterations, converged, r, K = _newton_loop(
        dataset, tau, method, beta0, gamma
    )
    if converged:
        beta, r, root_norm = _refine_root(dataset, beta, r, K, state, tau)
        converged = root_norm <= ROOT_TOLERANCE
    try:  # not _omega_update: a singular G~ here gives NaN SEs, not an inflated Omega
        G_inv = _jacobian(dataset, r, state, K)[1]
        omega = _sandwich(G_inv, _score_terms(dataset, r, state, K, tau))
    except SolverError:
        omega = None
    return _fit_result(dataset, tau, method, beta, omega, rho_hat, iterations, converged)


def _gamma_for(dataset, tau, gamma_mode, r=None) -> np.ndarray:
    """Gamma's diagonal; r, the residual of the fit at tau, bands the LPs at tau +/- h."""
    if gamma_mode == "identity":
        return identity_sparsity(dataset)
    h = hall_sheather_bandwidth(tau, dataset.n_obs)
    pilot = None if r is None else (r, h)
    try:
        beta_lo = _check_loss_minimizer(dataset.X, dataset.y, tau - h, pilot)
        beta_hi = _check_loss_minimizer(dataset.X, dataset.y, tau + h, pilot)
    except SolverError:
        # a failed auxiliary LP: fall back to unit weights, which the
        # estimator tolerates at some efficiency cost
        return identity_sparsity(dataset)
    return estimate_sparsity_hk(dataset, tau, h, beta_lo, beta_hi)


def _method_list(methods) -> tuple:
    """The named methods upper-cased, each once in the given order."""
    wanted = tuple(dict.fromkeys(str(m).upper() for m in methods))
    for m in wanted:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}; expected one of {METHODS}")
    if not wanted:
        raise ValueError("methods must be non-empty")
    return wanted


def fit_many(
    dataset: LongitudinalDataset,
    tau: float,
    methods,
    *,
    gamma_mode: str = "hk",
) -> dict:
    """Fit several methods at one tau, sharing the check-loss minimizer and Gamma.

    Returns a dict keyed by canonical method name; a method named twice is
    fitted once. The exact check-loss minimizer is always computed: it is
    the WI estimate and the start of the weighted methods. WI's Omega fixed
    point runs only when WI is requested. ``gamma_mode`` is "hk" for
    Hendricks-Koenker sparsity weights in PQR and AQR, or "identity" for
    unit weights.
    """
    tau = check_tau(tau)
    wanted = _method_list(methods)
    if gamma_mode not in GAMMA_MODES:
        raise ValueError(f"unknown gamma_mode {gamma_mode!r}; expected one of {GAMMA_MODES}")
    if dataset.n_obs <= dataset.p:
        raise DataError(f"need more observations ({dataset.n_obs}) than parameters ({dataset.p})")
    if np.linalg.matrix_rank(dataset.X) < dataset.p:
        raise DataError("stacked design matrix is rank deficient")
    beta = _check_loss_minimizer(dataset.X, dataset.y, tau)
    results = {}
    if "WI" in wanted:
        results["WI"] = _fit_wi(dataset, tau, beta)
    weighted = [m for m in wanted if m != "WI"]
    if weighted:
        gamma = _gamma_for(dataset, tau, gamma_mode, dataset.y - dataset.X @ beta)
        for method in weighted:
            results[method] = _fit_weighted(dataset, tau, method, beta, gamma)
    return results


def fit(
    dataset: LongitudinalDataset,
    tau: float,
    method: str = "PQR",
    *,
    gamma_mode: str = "hk",
) -> FitResult:
    """Fit one quantile regression by the requested method."""
    return fit_many(dataset, tau, [method], gamma_mode=gamma_mode)[str(method).upper()]
