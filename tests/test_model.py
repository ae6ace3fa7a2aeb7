"""Scalar functions and data containers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from wqreg import DataError, LongitudinalDataset
from wqreg.model import check_tau, score_psi, smoothed_score, smoothed_score_density

from oracle import check_loss, check_objective


def test_check_tau_accepts_interior_and_rejects_rest():
    assert check_tau(0.5) == 0.5
    for bad in (0.0, 1.0, -0.2, 1.7, float("nan")):
        with pytest.raises(ValueError):
            check_tau(bad)


def test_check_loss_values():
    assert check_loss(0.0, 0.5) == 0.0
    assert check_loss(0.0, 0.93) == 0.0
    assert check_loss(-1.0, 0.25) == pytest.approx(0.75, abs=1e-15)
    assert check_loss(2.0, 0.5) == pytest.approx(1.0, abs=1e-15)


def test_check_loss_rejects_non_finite():
    with pytest.raises(ValueError):
        check_loss(float("inf"), 0.5)
    with pytest.raises(ValueError):
        check_loss(float("nan"), 0.5)


def test_check_loss_nonnegative_and_convex():
    rng = np.random.default_rng(3)
    u = rng.standard_normal(500) * 5
    for tau in (0.1, 0.5, 0.9):
        assert np.all(check_loss(u, tau) >= 0.0)
    u1 = rng.standard_normal(200)
    u2 = rng.standard_normal(200)
    lam = rng.random(200)
    for tau in (0.25, 0.5, 0.75):
        mix = check_loss(lam * u1 + (1 - lam) * u2, tau)
        bound = lam * check_loss(u1, tau) + (1 - lam) * check_loss(u2, tau)
        assert np.all(mix <= bound + 1e-12)


def test_score_psi_values():
    assert score_psi(1.0, 0.5) == 0.5
    assert score_psi(-0.3, 0.25) == pytest.approx(-0.75)
    # indicator is strict, so the score at zero is tau itself
    assert score_psi(0.0, 0.95) == pytest.approx(0.95)
    with pytest.raises(ValueError):
        score_psi(float("nan"), 0.5)


def test_score_psi_is_derivative_of_check_loss_away_from_zero():
    # d/du rho_tau(u) = psi_tau(u) for u != 0; the beta-gradient of the
    # objective then carries the minus sign through the chain rule
    rng = np.random.default_rng(4)
    h = 1e-7
    for _ in range(50):
        u = rng.standard_normal() * 3
        if abs(u) < 1e-3:
            continue
        tau = rng.uniform(0.05, 0.95)
        fd = (check_loss(u + h, tau) - check_loss(u - h, tau)) / (2 * h)
        assert fd == pytest.approx(score_psi(u, tau), abs=1e-6)


def test_smoothed_score_values():
    assert smoothed_score(0.0, 0.5, 0.5) == pytest.approx(0.0, abs=1e-15)
    assert smoothed_score(0.7, 0.7, 0.5) == pytest.approx(norm.cdf(1.0) - 0.5, abs=1e-12)
    assert smoothed_score(10.0, 0.01, 0.25) == pytest.approx(0.25, abs=1e-12)


def test_smoothed_score_strictly_increasing_and_bounded():
    u = np.linspace(-5, 5, 201)
    s = smoothed_score(u, 0.7, 0.3)
    assert np.all(np.diff(s) > 0)
    assert np.all(s > 0.3 - 1.0) and np.all(s < 0.3)


def test_smoothed_score_rejects_bad_radius():
    for r in (0.0, -1.0):
        with pytest.raises(ValueError):
            smoothed_score(1.0, r, 0.5)
        with pytest.raises(ValueError):
            smoothed_score_density(1.0, r)


def test_smoothed_score_density_values():
    assert smoothed_score_density(0.0, 1.0) == pytest.approx(0.3989423, abs=1e-6)
    assert smoothed_score_density(0.0, 0.5) == pytest.approx(0.7978846, abs=1e-6)


def test_smoothed_score_density_matches_finite_differences():
    h = 1e-6
    fd = (smoothed_score(0.7 + h, 0.3, 0.5) - smoothed_score(0.7 - h, 0.3, 0.5)) / (2 * h)
    exact = smoothed_score_density(0.7, 0.3)
    assert abs(fd - exact) / exact < 1e-6

    rng = np.random.default_rng(9)
    u = rng.standard_normal(100) * 2
    r = rng.uniform(0.05, 2.0, 100)
    fd = (smoothed_score(u + h, r, 0.4) - smoothed_score(u - h, r, 0.4)) / (2 * h)
    exact = smoothed_score_density(u, r)
    # the difference quotient of the cdf carries ~eps/(2h) = 5e-11 absolute
    # noise, which dominates in the tails where the density is tiny
    assert np.all(np.abs(fd - exact) <= 1e-6 * np.abs(exact) + 1e-10)


def test_smoothed_score_converges_monotonically_to_psi():
    rng = np.random.default_rng(11)
    radii = (1.0, 0.1, 0.01, 0.001)
    for _ in range(100):
        u = rng.standard_normal()
        if u == 0.0:
            continue
        tau = rng.uniform(0.05, 0.95)
        gaps = [abs(smoothed_score(u, r, tau) - score_psi(u, tau)) for r in radii]
        assert all(a >= b - 1e-15 for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-3 or abs(u) < 5e-3


def test_check_objective_sums_losses():
    X = np.array([[1.0], [1.0], [1.0]])
    y = np.array([1.0, 2.0, 4.0])
    beta = np.array([2.0])
    expected = check_loss(-1.0, 0.5) + check_loss(0.0, 0.5) + check_loss(2.0, 0.5)
    assert check_objective(X, y, beta, 0.5) == pytest.approx(expected)


def test_dataset_shapes_and_grouping():
    X = [[1.0, 0.0], [1.0, 1.0], [1.0, 2.0], [1.0, 3.0], [1.0, 4.0]]
    ds = LongitudinalDataset(X, [1.0, 2.0, 3.0, 4.0, 5.0], [2, 1, 2], ["a", "b", "c"])
    assert ds.ids == ["a", "b", "c"] and list(ds.offsets) == [0, 2, 3, 5]
    assert (ds.m, ds.p, ds.n_obs, ds.max_n) == (3, 2, 5, 2)
    assert ds.X.shape == (5, 2) and ds.y.shape == (5,)
    assert np.array_equal(ds.mask, [[True, True], [True, False], [True, True]])
    assert np.array_equal(ds.pad(ds.y), [[1.0, 2.0], [3.0, 0.0], [4.0, 5.0]])
    assert list(ds.position_counts) == [3, 2] and list(ds.lag_pairs) == [5, 2]
    assert ds.X_cols.shape == (2, 3, 2) and ds.X_cols.flags.c_contiguous
    assert np.array_equal(ds.X_cols[:, 1], [[1.0, 0.0], [2.0, 0.0]])
    assert np.array_equal(ds.X_cols[:, ds.mask].T, ds.X)


def test_dataset_rejects_mixed_dimensions_and_empty():
    X, y, ids = np.ones((5, 2)), np.arange(5.0), ["a", "b", "c"]
    with pytest.raises(DataError, match="at least one subject"):
        LongitudinalDataset(np.empty((0, 2)), [], [], [])
    with pytest.raises(DataError, match="subject 'b' has no observations"):
        LongitudinalDataset(X, y, [3, 0, 2], ids)
    # rows that do not match the lengths, a 1-d design, too few ids
    for args in (
        (X, y, [2, 1, 1], ids),
        (X, y, [2, 2, 2], ids),
        (X, y[:4], [2, 1, 2], ids),
        (X[:, 0], y, [2, 1, 2], ids),
        (X, y, [2, 1, 2], ids[:2]),
    ):
        with pytest.raises(DataError, match="do not match"):
            LongitudinalDataset(*args)
    # a non-finite value names the first subject that holds one
    for k, name in ((1, "a"), (2, "b"), (3, "c")):
        bad_X, bad_y = X.copy(), y.copy()
        bad_X[k, 1], bad_y[4] = np.inf, np.nan
        with pytest.raises(DataError, match=f"subject '{name}' contains non-finite values"):
            LongitudinalDataset(bad_X, bad_y, [2, 1, 2], ids)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    lengths=st.lists(st.integers(1, 6), min_size=0, max_size=30),
    p=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_padded_layout_matches_a_per_subject_recount(lengths, p, seed):
    lengths = [*lengths, 1]  # every panel ends in a singleton
    rng = np.random.default_rng(seed)
    X, y = rng.standard_normal((sum(lengths), p)), rng.standard_normal(sum(lengths))
    ds = LongitudinalDataset(X, y, lengths, [f"s{i}" for i in range(len(lengths))])
    assert np.array_equal(ds.X_cols[:, ds.mask].T, X)
    assert np.array_equal(ds.pad(y)[ds.mask], y)
    positions = range(max(lengths))
    assert list(ds.position_counts) == [sum(n > j for n in lengths) for j in positions]
    assert list(ds.lag_pairs) == [sum(max(n - lag, 0) for n in lengths) for lag in positions]
    # subject i holds the next lengths[i] rows, at the head of its padded row
    start = 0
    for i, n in enumerate(lengths):
        assert (ds.offsets[i], ds.offsets[i + 1]) == (start, start + n)
        assert np.array_equal(ds.X_cols[:, i, :n].T, X[start : start + n])
        start += n
