"""Core domain types and the scalar score functions.

Longitudinal data are stacked rows of independent subjects, kept with their
lengths and ids. All estimating equations in this package are built from
the three scalar functions defined here: the discontinuous quantile score,
and the induced-smoothed score with its density.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .exceptions import DataError

__all__ = [
    "check_tau",
    "Subject",
    "LongitudinalDataset",
    "FitResult",
    "score_psi",
    "smoothed_score",
    "smoothed_score_density",
]

_SQRT_2PI = np.sqrt(2.0 * np.pi)
# beyond |z| = 40 the normal cdf/pdf are 0/1 to double precision
_Z_CLIP = 40.0


def check_tau(tau: float) -> float:
    """Validate a quantile level, returning it as a float.

    Raises
    ------
    ValueError
        If tau is not strictly inside (0, 1).
    """
    tau = float(tau)
    if not np.isfinite(tau) or not 0.0 < tau < 1.0:
        raise ValueError(f"quantile level must lie in (0, 1), got {tau!r}")
    return tau


def _norm_pdf(z: np.ndarray) -> np.ndarray:
    z = np.clip(z, -_Z_CLIP, _Z_CLIP)
    return np.exp(-0.5 * z * z) / _SQRT_2PI


def _norm_cdf(z: np.ndarray) -> np.ndarray:
    return ndtr(np.clip(z, -_Z_CLIP, _Z_CLIP))


# ---------------------------------------------------------------------------
# data containers
# ---------------------------------------------------------------------------


@dataclass
class Subject:
    """One independent subject: covariate rows x_ij and responses y_ij."""

    id: object
    covariates: np.ndarray  # (n_i, p), row j = x_ij
    responses: np.ndarray  # (n_i,)

    def __post_init__(self):
        self.covariates = np.atleast_2d(np.asarray(self.covariates, dtype=float))
        self.responses = np.asarray(self.responses, dtype=float).ravel()
        if self.covariates.shape[0] != self.responses.shape[0]:
            raise DataError(
                f"subject {self.id!r}: {self.covariates.shape[0]} covariate rows "
                f"vs {self.responses.shape[0]} responses"
            )
        if self.responses.shape[0] < 1:
            raise DataError(f"subject {self.id!r} has no observations")
        if not (np.all(np.isfinite(self.covariates)) and np.all(np.isfinite(self.responses))):
            raise DataError(f"subject {self.id!r} contains non-finite values")

    @property
    def n(self) -> int:
        return self.responses.shape[0]


class LongitudinalDataset:
    """An ordered collection of subjects sharing one covariate dimension.

    The rows are stacked subject by subject, ``X`` (n_obs, p) and ``y``, with
    the subjects' ``lengths`` and ``ids``. The constructor also caches a padded
    layout: row i of an (m, max_n) array holds subject i's occasions, followed
    by zeros where ``mask`` is False, and the design on it as p contiguous
    columns, ``X_cols`` (p, m, max_n). The solver estimates every subject's
    working covariance from residuals padded by ``pad`` and applies it at
    once on that layout.
    """

    def __init__(self, subjects):
        subjects = list(subjects)
        p = subjects[0].covariates.shape[1] if subjects else 0
        for s in subjects:
            if s.covariates.shape[1] != p:
                raise DataError(
                    f"subject {s.id!r} has {s.covariates.shape[1]} covariates, expected {p}"
                )
        X = np.concatenate([s.covariates for s in subjects] or [np.empty((0, p))])
        y = np.concatenate([s.responses for s in subjects] or [np.empty(0)])
        self._set_rows(X, y, [s.n for s in subjects], [s.id for s in subjects])

    @classmethod
    def from_rows(cls, X, y, lengths, ids) -> "LongitudinalDataset":
        """Dataset from stacked rows: subject i, named ids[i], holds the next
        lengths[i] rows of X (n_obs, p) and y (n_obs,)."""
        dataset = cls.__new__(cls)
        dataset._set_rows(X, y, lengths, ids)
        return dataset

    def _set_rows(self, X, y, lengths, ids):
        self.X, self.y = np.array(X, dtype=float), np.array(y, dtype=float)
        self.lengths, self.ids = np.asarray(lengths, dtype=int), list(ids)
        rows = self.lengths.sum()
        if self.lengths.size == 0:
            raise DataError("dataset needs at least one subject")
        if self.X.ndim != 2 or len(self.X) != rows or self.y.shape != (rows,) or len(self.ids) != self.m:
            raise DataError(
                f"a {self.X.shape} design and {self.y.size} responses do not match "
                f"{len(self.ids)} subjects of {rows} rows"
            )
        if self.lengths.min() < 1:
            raise DataError(f"subject {self.ids[np.argmin(self.lengths)]!r} has no observations")
        self.p = self.X.shape[1]
        self.max_n = int(self.lengths.max())
        self.offsets = np.concatenate([[0], np.cumsum(self.lengths)])
        finite = np.isfinite(self.X).all(axis=1) & np.isfinite(self.y)
        if not finite.all():
            first = np.searchsorted(self.offsets, np.argmin(finite), side="right") - 1
            raise DataError(f"subject {self.ids[first]!r} contains non-finite values")
        self.mask = np.arange(self.max_n) < self.lengths[:, None]
        # subjects observed per position; a pair at lag l ends at a position j >= l
        self.position_counts = self.mask.sum(axis=0)
        self.lag_pairs = np.cumsum(self.position_counts[::-1])[::-1]
        self.X_cols = np.ascontiguousarray(self.pad(self.X).transpose(2, 0, 1))

    @property
    def m(self) -> int:
        return self.lengths.size

    @property
    def n_obs(self) -> int:
        return int(self.y.shape[0])

    def pad(self, values: np.ndarray) -> np.ndarray:
        """Per-observation values (n_obs, ...) in the padded (m, max_n, ...)
        layout, zero in the padding."""
        values = np.asarray(values)
        out = np.zeros(self.mask.shape + values.shape[1:], dtype=values.dtype)
        # flat rows run subject by subject, the order in which a row-major
        # boolean index visits the mask
        out[self.mask] = values
        return out


@dataclass
class FitResult:
    """Output of one quantile regression fit."""

    beta: np.ndarray  # coefficient estimates
    omega: np.ndarray  # estimated covariance of beta (sandwich)
    std_errors: np.ndarray  # sqrt of diag(omega)
    iterations: int  # Newton iterations; for WI, Omega fixed-point updates
    converged: bool
    tau: float
    method: str  # "WI", "PQR" or "AQR"
    rho_hat: np.ndarray  # lag correlations; empty for WI


# ---------------------------------------------------------------------------
# scalar functions (vectorized over numpy arrays)
# ---------------------------------------------------------------------------


def score_psi(u, tau: float):
    """Quantile score psi_tau(u) = tau - I(u < 0); equals tau at u = 0."""
    u = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(u)):
        raise ValueError("score_psi requires finite input")
    return np.where(u < 0.0, tau - 1.0, tau)


def smoothed_score(u, r, tau: float):
    """Induced-smoothed score tau - 1 + Phi(u / r); strictly increasing in u."""
    u = np.asarray(u, dtype=float)
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError("smoothing radius must be positive")
    return tau - 1.0 + _norm_cdf(u / r)


def smoothed_score_density(u, r):
    """Derivative of the smoothed score in u: phi(u / r) / r."""
    u = np.asarray(u, dtype=float)
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError("smoothing radius must be positive")
    return _norm_pdf(u / r) / r
