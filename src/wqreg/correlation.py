"""Working covariance of the quantile scores.

Builds Sigma_i = A_i^{1/2} C(rho) A_i^{1/2} from per-occasion score
variances and the stationary lag-correlation moment estimator, both taken
from column and Gram sums of the residuals and scores in the dataset's
padded (m, max_n) layout, zero in the padding. Every Sigma_i is
a leading block of the full Sigma, so the working covariance factors the
full Sigma once per update, and one triangular product with the inverse
factor whitens every subject's values at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .exceptions import DataError
from .model import LongitudinalDataset, check_tau, score_psi

__all__ = [
    "SIGMA_MIN",
    "ScoreVariances",
    "sigma_constant",
    "sigma_empirical",
    "standardized_scores",
    "estimate_lag_correlations",
    "build_stationary_correlation",
    "regularize_correlation",
    "WorkingCovariance",
    "assemble_working_covariance",
]

# variance floor: an occasion whose indicator proportion hits 0 or 1 carries
# no rank information and would otherwise divide by zero
SIGMA_MIN = 1e-4

LAG_CLAMP = 0.99


@dataclass
class ScoreVariances:
    """Per-occasion score variances sigma_jj, shared by all subjects.

    Occasion j is the within-subject position; every subject observed at
    position j uses per_position[j].
    """

    per_position: np.ndarray  # (max_n,), each >= SIGMA_MIN

    def __post_init__(self):
        v = np.asarray(self.per_position, dtype=float).ravel()
        if not np.all(np.isfinite(v)):
            raise ValueError("score variances must be finite")
        self.per_position = np.maximum(v, SIGMA_MIN)


def sigma_constant(tau: float) -> float:
    """Constant score variance tau * (1 - tau) used by WI and PQR."""
    tau = check_tau(tau)
    return tau * (1.0 - tau)


def sigma_empirical(dataset: LongitudinalDataset, R: np.ndarray) -> ScoreVariances:
    """Per-occasion empirical score variances p_j (1 - p_j) used by AQR.

    p_j is the fraction of subjects observed at occasion j whose residual
    is strictly negative; R holds the residuals y - X beta padded, as
    ``dataset.pad`` lays them out.
    """
    p_hat = (R < 0.0).sum(axis=0) / dataset.position_counts
    return ScoreVariances(p_hat * (1.0 - p_hat))


def standardized_scores(
    dataset: LongitudinalDataset,
    R: np.ndarray,
    tau: float,
    variances: ScoreVariances,
) -> np.ndarray:
    """Scores psi_tau(R) divided by the per-occasion sqrt variance, for padded
    residuals R; padded like R and zero in the padding."""
    psi = score_psi(R, tau)
    return psi / np.sqrt(variances.per_position[: dataset.max_n]) * dataset.mask


def estimate_lag_correlations(dataset: LongitudinalDataset, S: np.ndarray) -> np.ndarray:
    """Moment estimator of the stationary lag correlations of the scores.

    S holds the standardized scores ytil padded, (m, max_n) and zero in the
    padding. For each lag l = 1, ..., max_n - 1 pools all available
    within-subject pairs:

        rho_l = [sum_i sum_j ytil_ij ytil_i,j+l / sum_i (n_i - l)]
                / [sum_i sum_j ytil_ij^2 / sum_i n_i]

    clamped to [-0.99, 0.99].
    """
    S = np.asarray(S, dtype=float)
    if S.shape != dataset.mask.shape:
        raise ValueError("scores are not in the dataset's padded layout")
    if dataset.max_n < 2:
        raise DataError("lag correlations need at least one subject with two occasions")
    scores = S[dataset.mask]  # in row order, so that the sum runs as over the rows
    den = float(scores @ scores) / dataset.n_obs
    if den == 0.0:
        raise DataError("all standardized scores are zero")
    gram = S.T @ S
    # the products of pairs (j - l, j) sum along the l-th subdiagonal of
    # S'S; the upper triangle goes to bin 0, which is not used
    r = np.arange(dataset.max_n)
    pair_sums = np.bincount(np.maximum(np.subtract.outer(r, r), 0).ravel(), gram.ravel())[1:]
    return np.clip(pair_sums / dataset.lag_pairs[1:] / den, -LAG_CLAMP, LAG_CLAMP)


def build_stationary_correlation(rho: np.ndarray, n: int) -> np.ndarray:
    """Toeplitz correlation matrix with rho_l on the l-th off-diagonals."""
    rho = np.asarray(rho, dtype=float).ravel()
    if n < 1:
        raise ValueError("occasion count must be at least 1")
    if rho.shape[0] < n - 1:
        raise ValueError(f"need {n - 1} lags, got {rho.shape[0]}")
    first = np.concatenate([[1.0], rho[: n - 1]])
    return first[np.abs(np.subtract.outer(np.arange(n), np.arange(n)))]


def regularize_correlation(C: np.ndarray) -> np.ndarray:
    """Repair a possibly non-PD correlation matrix by identity shrinkage.

    Returns C unchanged when its Cholesky succeeds; otherwise the smallest
    lam in {0.05, 0.10, ..., 0.95} with min eigenvalue of
    (1 - lam) C + lam I at least 1e-6, falling back to the identity.
    """
    C = np.asarray(C, dtype=float)
    try:
        np.linalg.cholesky(C)
        return C
    except np.linalg.LinAlgError:
        pass
    n = C.shape[0]
    eye = np.eye(n)
    for lam in np.arange(1, 20) * 0.05:
        shrunk = (1.0 - lam) * C + lam * eye
        if np.linalg.eigvalsh(shrunk).min() >= 1e-6:
            return shrunk
    return eye


class WorkingCovariance:
    """Per-subject Sigma_i^{-1} = L_i^{-T} L_i^{-1} from one triangular factor.

    Sigma_n is the leading n x n block of the full Sigma, so with L the
    Cholesky factor of the full Sigma (which also rejects a Sigma that is
    not PD), L_n^{-1} is the leading block of L^{-1}. ``whiten`` applies
    every subject's L_i^{-1} by one product with L^{-1}, which is exactly
    lower triangular: the padding of an input never reaches a valid row of
    the output, and the padding of the output is zeroed. Sigma has one row
    per occasion and a regularised correlation, so the explicit inverse
    loses no accuracy that matters, and no LAPACK call runs per evaluation.
    """

    def __init__(self, variances: ScoreVariances, correlation: np.ndarray,
                 dataset: LongitudinalDataset):
        self.variances = variances
        self.correlation = np.asarray(correlation, dtype=float)
        max_n = dataset.max_n
        if self.correlation.shape != (max_n, max_n):
            raise ValueError("correlation matrix does not match the occasion count")
        sd = np.sqrt(variances.per_position[:max_n])
        # potrf zeroes the upper triangle and trtri leaves it alone
        factor, info = lapack.dpotrf(sd[:, None] * self.correlation * sd[None, :], lower=1)
        if info == 0:
            self._l_inv, info = lapack.dtrtri(factor, lower=1)
        if info != 0:
            raise np.linalg.LinAlgError("working covariance is not positive definite")
        self._mask = dataset.mask

    def whiten(self, values: np.ndarray) -> np.ndarray:
        """L_i^{-1} v_i for padded (..., m, max_n) values, zero in the padding."""
        flat = values.reshape(-1, values.shape[-1])
        return (flat @ self._l_inv.T).reshape(values.shape) * self._mask


def assemble_working_covariance(
    variances: ScoreVariances,
    correlation: np.ndarray,
    dataset: LongitudinalDataset,
) -> WorkingCovariance:
    """Build Sigma_i = A^{1/2} C A^{1/2} and its factor.

    The factor of Sigma tests that C is PD, since Sigma is PD exactly when
    C is; only when it fails is C shrunk by ``regularize_correlation``.
    """
    try:
        return WorkingCovariance(variances, correlation, dataset)
    except np.linalg.LinAlgError:
        return WorkingCovariance(variances, regularize_correlation(correlation), dataset)
