"""Density weights for the Gamma_i diagonal.

Estimates the error density at zero for every observation by the
Hendricks-Koenker difference quotient between the exact check-loss
minimizers at tau +/- h, with bounded guards so the weights never blow up at
quantile crossings. Identity weights are available as the cheap alternative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .exceptions import DataError
from .model import LongitudinalDataset, check_tau

__all__ = [
    "SparsityWeights",
    "hall_sheather_bandwidth",
    "estimate_sparsity_hk",
    "identity_sparsity",
]

# quantile-crossing guards: denominators below D_MIN are treated as invalid,
# estimated densities are kept inside [F_MIN, F_MAX]
D_MIN = 1e-6
F_MIN = 1e-3
F_MAX = 1e3
_Z975 = float(ndtri(0.975))


@dataclass
class SparsityWeights:
    """Per-observation density weights f_ij, the diagonal of Gamma_i."""

    values: np.ndarray  # (N,)
    mode: str  # "hk" or "identity"

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float).ravel()


def hall_sheather_bandwidth(tau: float, n_obs: int) -> float:
    """Hall-Sheather bandwidth for sparsity estimation at quantile tau.

    h = N^(-1/3) z_{0.975}^(2/3) [1.5 phi^2(Phi^-1(tau)) / (2 Phi^-1(tau)^2 + 1)]^(1/3)

    clamped so that both tau - h and tau + h stay inside (0.01, 0.99).
    """
    tau = check_tau(tau)
    if n_obs < 10:
        raise DataError(f"bandwidth needs at least 10 observations, got {n_obs}")
    q = ndtri(tau)
    # phi(q)^2 = exp(-q^2) / (2 pi)
    bracket = 1.5 * np.exp(-q * q) / (2.0 * np.pi) / (2.0 * q * q + 1.0)
    h = n_obs ** (-1.0 / 3.0) * _Z975 ** (2.0 / 3.0) * bracket ** (1.0 / 3.0)
    h = min(h, tau - 0.01, 0.99 - tau)
    if h <= 0.0:
        raise DataError(f"quantile level {tau} too extreme for bandwidth selection")
    return float(h)


def estimate_sparsity_hk(
    dataset: LongitudinalDataset,
    tau: float,
    h: float,
    beta_lo: np.ndarray,
    beta_hi: np.ndarray,
) -> SparsityWeights:
    """Hendricks-Koenker density estimates 2h / (x_ij'(beta_hi - beta_lo)).

    beta_lo and beta_hi are quantile regression coefficients at tau - h and
    tau + h; the solver passes the exact check-loss minimizers. Invalid
    denominators (quantile crossing) fall back to the median of the valid
    weights, or 1 when none are valid.
    """
    check_tau(tau)
    d = dataset.X @ (np.asarray(beta_hi, dtype=float) - np.asarray(beta_lo, dtype=float))
    valid = d >= D_MIN
    f = np.empty(dataset.n_obs)
    f[valid] = np.clip(2.0 * h / d[valid], F_MIN, F_MAX)
    if valid.any():
        f[~valid] = np.median(f[valid])
    else:
        f[:] = 1.0
    return SparsityWeights(f, "hk")


def identity_sparsity(dataset: LongitudinalDataset) -> SparsityWeights:
    """Unit weights; treats Gamma_i as the identity matrix."""
    return SparsityWeights(np.ones(dataset.n_obs), "identity")
