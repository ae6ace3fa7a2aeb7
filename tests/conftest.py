"""Shared builders for the test suite."""

import numpy as np
import pytest

from wqreg import LongitudinalDataset


def scalar_dataset(values):
    """One observation per subject, intercept-only design."""
    m = len(values)
    return LongitudinalDataset(np.ones((m, 1)), values, np.ones(m, dtype=int), range(m))


def random_dataset(rng, m, n, p, scale=1.0):
    """Independent-noise panel with an intercept column when p >= 2 and
    coefficients drawn per subject.

    Subject by subject, the stream gives the drawn covariates (n, q), the
    coefficients (p,) and the noise (n,); one (m, n q + p + n) draw is that
    stream, since normal draws do not depend on how they are batched.
    """
    q = max(p - 1, 1)  # drawn covariate columns
    draws = rng.standard_normal((m, n * q + p + n))
    X = draws[:, : n * q].reshape(m, n, q)
    if p > 1:
        X = np.concatenate([np.ones((m, n, 1)), X], axis=2)
    beta = draws[:, n * q : n * q + p, None]
    y = (X @ beta)[..., 0] + scale * draws[:, n * q + p :]
    return LongitudinalDataset(X.reshape(m * n, p), y.ravel(), np.full(m, n), range(m))


def ragged_dataset(rng, lengths, beta=(0.0, 0.0)):
    """Intercept and one normal covariate on subjects with the given numbers
    of occasions; subject by subject, the stream gives the covariate, then
    the noise."""
    x, noise = np.concatenate([rng.standard_normal((2, n)) for n in lengths], axis=1)
    X = np.column_stack([np.ones(x.size), x])
    return LongitudinalDataset(X, X @ beta + noise, lengths, range(len(lengths)))


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)
