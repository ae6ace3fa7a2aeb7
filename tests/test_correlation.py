"""Score variances, lag correlations, and the working covariance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wqreg import DataError, LongitudinalDataset, SimConfig, Subject
from wqreg.correlation import (
    SIGMA_MIN,
    ScoreVariances,
    assemble_working_covariance,
    build_stationary_correlation,
    estimate_lag_correlations,
    regularize_correlation,
    sigma_constant,
    sigma_empirical,
    standardized_scores,
)
from wqreg.simulation import generate_dataset

from conftest import random_dataset
from oracle import (
    empirical_variance_oracle,
    indicator_correlation_oracle,
    lag_correlation_oracle,
    subject_matrix,
)


def padded_residual(ds, beta):
    return ds.pad(ds.y - ds.X @ beta)


def panel(rows):
    """rows: list of (x_rows, y_values) per subject with intercept column."""
    subs = []
    for i, (X, y) in enumerate(rows):
        subs.append(Subject(id=i, covariates=X, responses=y))
    return LongitudinalDataset(subs)


def test_sigma_constant_values():
    assert sigma_constant(0.5) == pytest.approx(0.25)
    assert sigma_constant(0.25) == pytest.approx(0.1875)
    assert sigma_constant(0.95) == pytest.approx(0.0475)


def test_score_variances_floor():
    v = ScoreVariances([0.0, 0.2])
    assert v.per_position[0] == SIGMA_MIN
    assert v.per_position[1] == 0.2


def test_sigma_empirical_direct_count():
    # occasion 0 indicators {1,0,0,1} -> p=0.5, sigma=0.25
    ds = panel(
        [
            ([[1.0]], [-1.0]),
            ([[1.0]], [1.0]),
            ([[1.0]], [2.0]),
            ([[1.0]], [-0.5]),
        ]
    )
    v = sigma_empirical(ds, padded_residual(ds, np.array([0.0])))
    assert v.per_position[0] == pytest.approx(0.25)


def test_sigma_empirical_floor_engaged():
    ds = panel([([[1.0]], [1.0]), ([[1.0]], [2.0])])
    v = sigma_empirical(ds, padded_residual(ds, np.array([0.0])))  # no negative residuals
    assert v.per_position[0] == SIGMA_MIN


def test_sigma_empirical_consistent_at_truth():
    config = SimConfig(m=5000, n=4, rho=0.5, error_case="normal", taus=(0.5,), replications=1, master_seed=77)
    ds = generate_dataset(config, 0)
    v = sigma_empirical(ds, padded_residual(ds, np.array(config.beta_true)))
    assert np.all(np.abs(v.per_position - 0.25) < 0.02)


def test_standardized_scores_values():
    ds = panel([([[1.0]], [1.0]), ([[1.0]], [-1.0])])
    v = ScoreVariances([0.25])
    s = standardized_scores(ds, padded_residual(ds, np.array([0.0])), 0.5, v)
    assert s[0, 0] == pytest.approx(1.0)
    v2 = ScoreVariances([0.1875])
    s2 = standardized_scores(ds, padded_residual(ds, np.array([0.0])), 0.25, v2)
    assert s2[1, 0] == pytest.approx(-0.75 / np.sqrt(0.1875))


def test_standardized_scores_two_magnitudes(rng):
    ds = random_dataset(rng, 30, 3, 2)
    tau = 0.3
    v = ScoreVariances(np.full(3, sigma_constant(tau)))
    s = standardized_scores(ds, padded_residual(ds, rng.standard_normal(2)), tau, v)
    assert np.array_equal(s[~ds.mask], np.zeros(np.count_nonzero(~ds.mask)))
    mags = np.unique(np.round(np.abs(s[ds.mask]), 12))
    assert mags.size == 2


def test_lag_correlations_perfect_and_cancelling():
    ds = panel(
        [
            (np.ones((3, 1)), [0.0, 0.0, 0.0]),
            (np.ones((3, 1)), [0.0, 0.0, 0.0]),
        ]
    )
    rho = estimate_lag_correlations(ds, np.full((2, 3), 0.7))
    assert np.allclose(rho, 0.99)  # perfect correlation, clamped

    ds2 = panel(
        [
            (np.ones((2, 1)), [0.0, 0.0]),
            (np.ones((2, 1)), [0.0, 0.0]),
        ]
    )
    rho2 = estimate_lag_correlations(ds2, np.array([[1.0, 1.0], [1.0, -1.0]]))
    assert rho2[0] == pytest.approx(0.0, abs=1e-15)


def test_lag_correlations_errors():
    ds = panel([(np.ones((1, 1)), [0.0]), (np.ones((1, 1)), [0.0])])
    with pytest.raises(DataError):
        estimate_lag_correlations(ds, np.ones((2, 1)))
    ds2 = panel([(np.ones((2, 1)), [0.0, 0.0])])
    with pytest.raises(DataError):
        estimate_lag_correlations(ds2, np.zeros((1, 2)))
    # flat per-observation scores are not the padded layout
    with pytest.raises(ValueError):
        estimate_lag_correlations(ds2, np.ones(ds2.n_obs))


def test_lag_correlations_scale_invariance(rng):
    ds = random_dataset(rng, 40, 4, 2)
    scores = ds.pad(rng.standard_normal(ds.n_obs))
    base = estimate_lag_correlations(ds, scores)
    for c in (0.5, 3.0, 1e4):
        scaled = estimate_lag_correlations(ds, c * scores)
        assert np.max(np.abs(scaled - base)) <= 1e-12


def test_lag_correlations_pool_within_subject_pairs_of_an_unbalanced_panel(rng):
    # 1 to 12 occasions in shuffled order, so subject boundaries fall at every
    # flat position and a pair across two subjects would shift every lag
    lengths = rng.permutation(np.repeat(np.arange(1, 13), 4))
    ds = panel([(np.ones((n, 1)), rng.standard_normal(n)) for n in lengths])
    scores = rng.standard_normal(ds.n_obs)
    blocks = [scores[ds.offsets[i] : ds.offsets[i + 1]] for i in range(ds.m)]
    den = sum(float(b @ b) for b in blocks) / ds.n_obs
    want = []
    for lag in range(1, 12):
        num = sum(b[j] * b[j + lag] for b in blocks for j in range(b.size - lag))
        pairs = sum(max(b.size - lag, 0) for b in blocks)
        want.append(num / pairs / den)
    got = estimate_lag_correlations(ds, ds.pad(scores))
    assert np.max(np.abs(got - np.clip(want, -0.99, 0.99))) <= 1e-12


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    lengths=st.lists(st.integers(1, 12), min_size=1, max_size=40),
    tau=st.floats(0.05, 0.95),
)
def test_padded_moments_match_the_flat_row_oracle(seed, lengths, tau):
    # every panel has a singleton and a subject with two occasions
    rng = np.random.default_rng(seed)
    ds = panel(
        [
            (np.column_stack([np.ones(n), rng.standard_normal(n)]), rng.standard_normal(n))
            for n in [1, *lengths, 2]
        ]
    )
    beta = 0.5 * rng.standard_normal(2)
    R = padded_residual(ds, beta)
    variances = sigma_empirical(ds, R)
    want = np.maximum(empirical_variance_oracle(ds, beta), SIGMA_MIN)
    assert np.max(np.abs(variances.per_position - want)) <= 1e-12 * np.max(want)
    # correlations have scale 1, so an absolute 1e-12 is relative to it
    for S in (standardized_scores(ds, R, tau, variances), ds.pad(rng.standard_normal(ds.n_obs))):
        want = np.clip(lag_correlation_oracle(ds, S[ds.mask]), -0.99, 0.99)
        assert np.max(np.abs(estimate_lag_correlations(ds, S) - want)) <= 1e-12


def test_lag_correlations_recover_indicator_correlation():
    config = SimConfig(m=5000, n=4, rho=0.9, error_case="normal", taus=(0.5,), replications=1, master_seed=5)
    ds = generate_dataset(config, 0)
    v = ScoreVariances(np.full(4, sigma_constant(0.5)))
    scores = standardized_scores(ds, padded_residual(ds, np.array(config.beta_true)), 0.5, v)
    rho = estimate_lag_correlations(ds, scores)
    assert abs(rho[0] - indicator_correlation_oracle(0.9)) < 0.02


def test_build_stationary_correlation():
    assert np.array_equal(build_stationary_correlation([0.0, 0.0, 0.0], 4), np.eye(4))
    C = build_stationary_correlation([0.5, 0.25, 0.125], 4)
    expected = np.array(
        [
            [1.0, 0.5, 0.25, 0.125],
            [0.5, 1.0, 0.5, 0.25],
            [0.25, 0.5, 1.0, 0.5],
            [0.125, 0.25, 0.5, 1.0],
        ]
    )
    assert np.allclose(C, expected)
    assert np.array_equal(build_stationary_correlation([], 1), np.array([[1.0]]))
    with pytest.raises(ValueError):
        build_stationary_correlation([0.5], 3)


def test_build_stationary_correlation_is_toeplitz(rng):
    rho = rng.uniform(-0.3, 0.3, 5)
    C = build_stationary_correlation(rho, 6)
    for j in range(6):
        for k in range(6):
            ref = 1.0 if j == k else rho[abs(j - k) - 1]
            assert C[j, k] == ref


def test_regularize_correlation_paths():
    eye = np.eye(3)
    assert regularize_correlation(eye) is not None
    assert np.array_equal(regularize_correlation(eye), eye)

    C2 = np.array([[1.0, 0.99], [0.99, 1.0]])
    assert np.array_equal(regularize_correlation(C2), C2)

    C3 = build_stationary_correlation([0.99, -0.99], 3)
    assert np.linalg.eigvalsh(C3).min() < 0
    fixed = regularize_correlation(C3)
    np.linalg.cholesky(fixed)  # PD now
    assert np.allclose(np.diag(fixed), 1.0)


def test_assemble_working_covariance_values():
    ds = panel([(np.ones((2, 1)), [0.0, 0.0])])
    v = ScoreVariances([0.25, 0.25])
    cov = assemble_working_covariance(v, build_stationary_correlation([0.5], 2), ds)
    assert np.allclose(subject_matrix(cov, ds, 0), [[0.25, 0.125], [0.125, 0.25]])

    # WI special case: C = I, sigma = tau(1-tau)
    cov_wi = assemble_working_covariance(ScoreVariances([0.25, 0.25]), np.eye(2), ds)
    assert np.allclose(subject_matrix(cov_wi, ds, 0), 0.25 * np.eye(2))


def test_assemble_working_covariance_solves(rng):
    ds = random_dataset(rng, 10, 4, 2)
    v = ScoreVariances(rng.uniform(0.05, 0.4, 4))
    rho = np.array([0.5, 0.3, 0.2])
    cov = assemble_working_covariance(v, build_stationary_correlation(rho, 4), ds)
    sigma = subject_matrix(cov, ds, 0)
    assert np.max(np.abs(sigma - sigma.T)) <= 1e-12
    assert np.allclose(np.diag(sigma), v.per_position, atol=1e-12)

    # (L_i^{-1} u)'(L_i^{-1} w) = u' Sigma_i^{-1} w for vectors and for
    # the (p, m, max_n) column layout of blocks
    vec = rng.standard_normal((10, 4))
    blocks = rng.standard_normal((2, 10, 4))
    white = cov.whiten(vec)
    solved = np.linalg.solve(sigma, vec.T).T
    assert np.max(np.abs((white * white).sum(axis=1) - (vec * solved).sum(axis=1))) < 1e-10
    forms = (cov.whiten(blocks) * white).sum(axis=2)
    assert np.max(np.abs(forms - (blocks * solved).sum(axis=2))) < 1e-10

    # unbalanced panels (1 to 12 occasions), a correlation that needed
    # shrinking, lags at the clamp, and variances at the floor
    ds = panel(
        [
            (np.column_stack([np.ones(n), rng.standard_normal(n)]), rng.standard_normal(n))
            for n in rng.permutation(np.repeat(np.arange(1, 13), 3))
        ]
    )
    clamped = np.resize([0.99, -0.99, 0.99, 0.99, -0.99], 11)
    raw = build_stationary_correlation(clamped, 12)
    assert np.linalg.eigvalsh(raw).min() < 0
    floored = rng.uniform(0.05, 0.25, 12)
    floored[::3] = 0.0
    cases = [
        (ScoreVariances(rng.uniform(0.05, 0.25, 12)), 0.8 ** np.arange(1, 12), False),
        (ScoreVariances(floored), clamped, True),
    ]
    assert np.any(cases[1][0].per_position == SIGMA_MIN)
    for variances, lags, shrinks in cases:
        C = build_stationary_correlation(lags, 12)
        cov = assemble_working_covariance(variances, C, ds)
        # a PD correlation is used as passed in: the shrinkage did not run
        assert np.array_equal(cov.correlation, C) != shrinks
        vec = ds.pad(rng.standard_normal(ds.n_obs))
        blocks = ds.pad(rng.standard_normal((ds.n_obs, 3))).transpose(2, 0, 1)
        got = cov.whiten(vec)
        got_b = cov.whiten(blocks)
        # the padding must stay exactly zero, not merely small, and values
        # in the padding of the input must not reach the valid rows
        assert np.all(got[~ds.mask] == 0.0) and np.all(got_b[:, ~ds.mask] == 0.0)
        assert np.array_equal(cov.whiten(vec + rng.standard_normal(vec.shape) * ~ds.mask), got)
        for i, n in enumerate(ds.lengths):
            sigma = subject_matrix(cov, ds, i)
            want = vec[i, :n] @ np.linalg.solve(sigma, vec[i, :n])
            assert abs(got[i] @ got[i] - want) <= 1e-8 * abs(want), n
            want_b = blocks[:, i, :n] @ np.linalg.solve(sigma, vec[i, :n])
            assert np.max(np.abs(got_b[:, i] @ got[i] - want_b)) <= 1e-8 * np.max(np.abs(want_b)), n
    assert not np.array_equal(cov.correlation, raw)  # the shrinkage fired
