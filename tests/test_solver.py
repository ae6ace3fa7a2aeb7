"""Estimating function, Jacobian, sandwich, and the fitting drivers."""

from contextlib import nullcontext
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import wqreg.solver as solver_mod
from wqreg import (
    DataError,
    FitResult,
    LongitudinalDataset,
    SimConfig,
    SolverError,
    Subject,
    WqregError,
    confidence_intervals,
    fit,
    fit_many,
)
from wqreg.model import score_psi, smoothed_score
from wqreg.simulation import generate_dataset
from wqreg.solver import SmoothingState
from wqreg.correlation import (
    ScoreVariances,
    assemble_working_covariance,
    build_stationary_correlation,
)
from wqreg.sparsity import identity_sparsity

from conftest import random_dataset, scalar_dataset
from oracle import (
    check_objective,
    exact_wi_fit,
    finite_difference_jacobian,
    fit_state,
    newton_loop_reference,
    sandwich_covariance,
    score_covariance,
    smoothed_estimating_function,
    smoothed_jacobian,
    subject_matrix,
    subject_rows,
)


def wi_weights(ds, tau=0.5):
    variances = ScoreVariances(np.full(ds.max_n, tau * (1 - tau)))
    return identity_sparsity(ds), assemble_working_covariance(variances, np.eye(ds.max_n), ds)


def unit_weights(ds):
    variances = ScoreVariances(np.ones(ds.max_n))
    return identity_sparsity(ds), assemble_working_covariance(variances, np.eye(ds.max_n), ds)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        fit(scalar_dataset([1.0, 2.0, 3.0]), 0.5, "PQR", gamma_mode="kernel")


def test_estimating_function_zero_at_zero_residuals():
    ds = scalar_dataset([2.0, 2.0, 2.0])
    gamma, sigma = wi_weights(ds)
    state = SmoothingState.from_omega(ds, np.eye(1))
    U = smoothed_estimating_function(ds, np.array([2.0]), state, gamma, sigma, 0.5)
    assert np.allclose(U, 0.0, atol=1e-15)


def test_estimating_function_symmetric_cancellation():
    ds = scalar_dataset([1.0, -1.0])
    gamma, sigma = unit_weights(ds)
    state = SmoothingState.from_omega(ds, np.eye(1))
    U = smoothed_estimating_function(ds, np.array([0.0]), state, gamma, sigma, 0.5)
    assert U[0] == pytest.approx(0.0, abs=1e-15)


def test_estimating_function_matches_direct_formula(rng):
    from wqreg.model import smoothed_score_density

    def subject(i, n):
        X = np.column_stack([np.ones(n), rng.standard_normal(n)])
        return Subject(id=i, covariates=X, responses=rng.standard_normal(n))

    balanced = [subject(i, 2) for i in range(3)]
    # 1 to 5 occasions in shuffled order scatter each group over the subject
    # indices, so every v_i must land in a row of its own
    lengths = rng.permutation(np.repeat(np.arange(1, 6), 3))
    unbalanced = [subject(i, n) for i, n in enumerate(lengths)]
    # 1 to 12 occasions with singletons, lags at the clamp that force the
    # correlation shrinkage, and variances at the floor
    ragged = [subject(i, n) for i, n in enumerate(rng.permutation(np.repeat(np.arange(1, 13), 2)))]
    correlations = [
        np.array([[1.0, 0.4], [0.4, 1.0]]),
        build_stationary_correlation([0.5, 0.3, -0.2, 0.1], 5),
        build_stationary_correlation(np.resize([0.99, -0.99, 0.99, 0.99, -0.99], 11), 12),
    ]
    tau = 0.3
    for subs, C in zip([balanced, unbalanced, ragged], correlations):
        ds = LongitudinalDataset(subs)
        beta = rng.standard_normal(2)
        omega = np.diag(rng.uniform(0.5, 2.0, 2))
        state = SmoothingState.from_omega(ds, omega)
        gamma = rng.uniform(0.5, 2.0, ds.n_obs)
        variances = rng.uniform(0.1, 0.4, ds.max_n)
        if subs is ragged:
            variances[::3] = 0.0  # floored to SIGMA_MIN
        sigma = assemble_working_covariance(ScoreVariances(variances), C, ds)
        assert np.array_equal(sigma.correlation, C) != (subs is ragged)

        U = smoothed_estimating_function(ds, beta, state, gamma, sigma, tau)
        G = smoothed_jacobian(ds, beta, state, gamma, sigma, tau)
        V = score_covariance(ds, beta, state, gamma, sigma, tau)

        # independent elementwise recomputation with explicit inverses
        U_ref = np.zeros(2)
        G_ref = np.zeros((2, 2))
        V_ref = np.zeros((2, 2))
        for i, s in enumerate(subs):
            rows = slice(ds.offsets[i], ds.offsets[i + 1])
            Xi = s.covariates
            ri = state.radii[rows]
            gi = np.diag(gamma[rows])
            sig_inv = np.linalg.inv(subject_matrix(sigma, ds, i))
            psi = smoothed_score(s.responses - Xi @ beta, ri, tau)
            lam = np.diag(smoothed_score_density(s.responses - Xi @ beta, ri))
            v = Xi.T @ gi @ sig_inv @ psi
            U_ref += v
            G_ref += Xi.T @ gi @ sig_inv @ lam @ Xi
            V_ref += np.outer(v, v)
        # at the variance floor Sigma^{-1} is of order 1 / SIGMA_MIN and V of
        # its square, so the ragged input is checked relative to its size
        for got, ref in ((U, U_ref), (G, G_ref), (V, V_ref)):
            scale = np.max(np.abs(ref)) if subs is ragged else 1.0
            assert np.max(np.abs(got - ref)) < 1e-12 * scale


def test_jacobian_scalar_case():
    ds = scalar_dataset([0.0])
    gamma, sigma = unit_weights(ds)
    state = SmoothingState.from_omega(ds, np.eye(1))
    G = smoothed_jacobian(ds, np.array([0.0]), state, gamma, sigma, 0.5)
    assert G.shape == (1, 1)
    assert G[0, 0] == pytest.approx(0.3989423, abs=1e-6)


def test_jacobian_matches_finite_differences(rng):
    for _ in range(5):
        ds = random_dataset(rng, 12, 3, 2)
        gamma, sigma = wi_weights(ds, 0.4)
        state = SmoothingState.from_omega(ds, np.eye(2) / ds.m)
        beta = rng.standard_normal(2) * 0.3

        def U_of(b):
            return smoothed_estimating_function(ds, b, state, gamma, sigma, 0.4)

        G = smoothed_jacobian(ds, beta, state, gamma, sigma, 0.4)
        J = finite_difference_jacobian(U_of, beta, 1e-6)
        assert np.linalg.norm(J + G) / np.linalg.norm(G) < 1e-6


def test_jacobian_raises_on_singular_system():
    ds = scalar_dataset([100.0, 200.0])
    gamma, sigma = unit_weights(ds)
    # microscopic radii put every residual far outside the kernel support
    state = SmoothingState(np.eye(1) * 1e-30, np.full(2, 1e-15))
    with pytest.raises(SolverError):
        smoothed_jacobian(ds, np.array([0.0]), state, gamma, sigma, 0.5)


def test_jacobian_condition_limit():
    # kappa_1 = ||G||_1 ||G^{-1}||_1, equal to kappa_2 for a diagonal G: just
    # above COND_MAX is singular, just below it and a well-conditioned G pass
    limit = solver_mod.COND_MAX
    with pytest.raises(SolverError):
        solver_mod._inverse(np.diag([1.0, 1.0 / (1.001 * limit)]))
    near = np.diag([1.0, 1.0 / (0.999 * limit)])
    assert np.array_equal(solver_mod._inverse(near), np.linalg.inv(near))
    G = np.array([[2.0, 1.0], [1.0, 3.0]])
    assert np.max(np.abs(solver_mod._inverse(G) @ G - np.eye(2))) <= 1e-15
    for bad in (np.zeros((2, 2)), np.array([[1.0, np.nan], [0.0, 1.0]])):
        with pytest.raises(SolverError):
            solver_mod._inverse(bad)


def test_score_covariance_structure(rng):
    ds = scalar_dataset([2.0, 2.0])
    gamma, sigma = wi_weights(ds)
    state = SmoothingState.from_omega(ds, np.eye(1))
    V = score_covariance(ds, np.array([2.0]), state, gamma, sigma, 0.5)
    assert np.allclose(V, 0.0, atol=1e-28)

    one = LongitudinalDataset([Subject(id=0, covariates=[[1.0, 0.5]], responses=[1.3])])
    gamma1, sigma1 = wi_weights(one)
    state1 = SmoothingState.from_omega(one, np.eye(2))
    V1 = score_covariance(one, np.zeros(2), state1, gamma1, sigma1, 0.5)
    psi = smoothed_score(1.3, state1.radii, 0.5) / 0.25
    v = one.X[0] * psi
    assert np.allclose(V1, np.outer(v, v), atol=1e-14)

    ds2 = random_dataset(rng, 15, 3, 2)
    gamma2, sigma2 = wi_weights(ds2)
    state2 = SmoothingState.from_omega(ds2, np.eye(2) / 15)
    V2 = score_covariance(ds2, rng.standard_normal(2), state2, gamma2, sigma2, 0.5)
    assert np.max(np.abs(V2 - V2.T)) <= 1e-12
    assert np.linalg.eigvalsh(V2).min() >= -1e-10


def test_sandwich_matches_explicit_inverse(rng):
    ds = random_dataset(rng, 20, 2, 2)
    gamma, sigma = wi_weights(ds)
    state = SmoothingState.from_omega(ds, np.eye(2) / 20)
    beta = rng.standard_normal(2) * 0.2
    omega = sandwich_covariance(ds, beta, state, gamma, sigma, 0.5)
    G = smoothed_jacobian(ds, beta, state, gamma, sigma, 0.5)
    V = score_covariance(ds, beta, state, gamma, sigma, 0.5)
    ref = np.linalg.inv(G) @ V @ np.linalg.inv(G).T
    assert np.max(np.abs(omega - ref)) < 1e-12


def test_confidence_intervals():
    from wqreg import FitResult

    res = FitResult(
        beta=np.array([0.0, 1.0]),
        omega=np.diag([1.0, 0.0]),
        std_errors=np.array([1.0, 0.0]),
        iterations=1,
        converged=True,
        tau=0.5,
        method="WI",
        rho_hat=np.empty(0),
    )
    ci = confidence_intervals(res, 0.95)
    assert ci[0, 0] == pytest.approx(-1.959964, abs=1e-5)
    assert ci[0, 1] == pytest.approx(1.959964, abs=1e-5)
    assert ci[1, 0] == ci[1, 1] == 1.0  # zero SE degenerates to a point
    for bad in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            confidence_intervals(res, bad)


def test_fit_validates_inputs(rng):
    ds = random_dataset(rng, 10, 2, 2)
    with pytest.raises(ValueError):
        fit(ds, 0.5, "QQR")
    with pytest.raises(ValueError):
        fit(ds, 1.5, "WI")

    tiny = LongitudinalDataset([Subject(id=0, covariates=[[1.0, 2.0]], responses=[1.0])])
    with pytest.raises(DataError):
        fit(tiny, 0.5, "WI")

    collinear = LongitudinalDataset(
        [Subject(id=i, covariates=[[1.0, 2.0]], responses=[float(i)]) for i in range(6)]
    )
    with pytest.raises(DataError):
        fit(collinear, 0.5, "WI")


def test_wi_fit_matches_sample_median(rng):
    y = rng.standard_normal(50)
    ds = scalar_dataset(y)
    res = fit(ds, 0.5, "WI")
    iqr = np.subtract(*np.percentile(y, [75, 25]))
    assert abs(res.beta[0] - np.median(y)) <= 0.05 * iqr
    assert res.converged


def test_wi_fit_reaches_oracle_objective(rng):
    for _ in range(20):
        m = int(rng.integers(5, 16))
        ds = random_dataset(rng, m, 1, 2)
        tau = float(rng.choice([0.25, 0.5, 0.75]))
        res = fit(ds, tau, "WI")
        oracle = exact_wi_fit(ds, tau)
        assert np.max(np.abs(res.beta - oracle.beta)) <= 0.02
        excess = check_objective(ds.X, ds.y, res.beta, tau) - oracle.objective
        assert excess <= 1e-6 * (1.0 + abs(oracle.objective))


def test_wi_tie_rule_takes_the_middle_of_the_optimal_interval():
    ds = scalar_dataset([1.0, 2.0, 3.0, 4.0])
    # every b in [2, 3] minimizes the check loss at tau = 0.5, every b in [1, 2] at 0.25
    assert abs(fit(ds, 0.5, "WI").beta[0] - 2.5) <= 1e-9
    assert abs(fit(ds, 0.25, "WI").beta[0] - 1.5) <= 1e-9


def test_wi_tie_rule_takes_the_midpoint_of_an_optimal_edge():
    # the binary covariate leaves the optimal set an edge on this panel
    config = SimConfig(m=80, n=4, rho=0.0, taus=(0.5,), replications=1, master_seed=5)
    ds = generate_dataset(config, 0)
    tau = 0.5
    res = fit(ds, tau, "WI")
    dual = linprog(-ds.y, A_eq=ds.X.T, b_eq=np.zeros(ds.p), bounds=(tau - 1, tau), method="highs")
    optimum = -dual.fun
    assert check_objective(ds.X, ds.y, res.beta, tau) == pytest.approx(optimum, rel=1e-9)

    # ends of the optimal set in beta_0, from the primal LP over (b, u+, u-)
    N, p = ds.X.shape
    A_eq = np.hstack([ds.X, np.eye(N), -np.eye(N)])
    loss = np.concatenate([np.zeros(p), np.full(N, tau), np.full(N, 1 - tau)])
    bounds = [(None, None)] * p + [(0, None)] * (2 * N)
    ends = []
    for sign in (1.0, -1.0):
        c = np.zeros(p + 2 * N)
        c[0] = sign
        sol = linprog(c, A_ub=loss[None, :], b_ub=[optimum * (1 + 1e-12)], A_eq=A_eq, b_eq=ds.y,
                      bounds=bounds, method="highs")
        ends.append(sol.x[:p])
    assert abs(ends[1][0] - ends[0][0]) > 1e-3
    assert np.max(np.abs(res.beta - 0.5 * (ends[0] + ends[1]))) <= 1e-6
    assert np.max(np.abs(res.beta - [-0.40255, 0.26203, 0.91300])) <= 1e-5


def test_fit_result_invariants():
    config = SimConfig(m=60, n=4, rho=0.5, error_case="normal", taus=(0.5,), replications=1, master_seed=10)
    ds = generate_dataset(config, 0)
    for method in ("WI", "PQR", "AQR"):
        res = fit(ds, 0.5, method)
        assert res.converged
        assert res.method == method
        assert list(vars(res)) == [f.name for f in fields(FitResult)]
        assert len(vars(res)) == 8
        sym = np.max(np.abs(res.omega - res.omega.T))
        assert sym <= 1e-10 * max(np.max(np.abs(res.omega)), 1e-300)
        eigs = np.linalg.eigvalsh(res.omega)
        assert eigs.min() >= -1e-10 * eigs.max()
        assert np.allclose(res.std_errors, np.sqrt(np.diag(res.omega)))
        if method == "WI":
            assert res.rho_hat.size == 0
        else:
            assert res.rho_hat.size == ds.max_n - 1


def test_newton_fixed_point_at_reported_root():
    config = SimConfig(m=80, n=4, rho=0.5, error_case="normal", taus=(0.5,), replications=1, master_seed=21)
    ds = generate_dataset(config, 0)
    for method in ("WI", "PQR", "AQR"):
        res = fit(ds, 0.5, method)
        assert res.converged
        args = (ds, res.beta, *fit_state(ds, 0.5, res), 0.5)
        if method == "WI":
            # Omega reproduces itself under the sandwich at its own radii
            again = sandwich_covariance(*args)
            assert np.linalg.norm(again - res.omega) <= 1e-6 * np.linalg.norm(res.omega)
        else:
            assert np.max(np.abs(smoothed_estimating_function(*args))) <= 1e-6
            # the fit's Omega is the sandwich rebuilt at the reported beta
            assert np.array_equal(res.omega, sandwich_covariance(*args))


def test_wi_equivariance(rng):
    ds = random_dataset(rng, 40, 2, 2)
    base = fit(ds, 0.5, "WI")

    delta = np.array([0.7, -1.2])
    shifted = LongitudinalDataset(
        [
            Subject(id=s.id, covariates=s.covariates, responses=s.responses + s.covariates @ delta)
            for s in subject_rows(ds)
        ]
    )
    res_shift = fit(shifted, 0.5, "WI")
    assert np.max(np.abs(res_shift.beta - (base.beta + delta))) < 1e-6

    c = 3.5
    scaled = LongitudinalDataset(
        [
            Subject(id=s.id, covariates=s.covariates, responses=c * s.responses)
            for s in subject_rows(ds)
        ]
    )
    res_scale = fit(scaled, 0.5, "WI")
    assert np.max(np.abs(res_scale.beta - c * base.beta)) < 1e-6 * c

    # 1 to 6 occasions with singletons, in shuffled order: y -> c y + X delta
    # moves beta to c beta + delta and scales the SEs by |c|
    def subject(i, n):
        X = np.column_stack([np.ones(n), rng.standard_normal(n)])
        return Subject(id=i, covariates=X, responses=X @ [1.0, -0.5] + rng.standard_normal(n))

    lengths = rng.permutation(np.repeat(np.arange(1, 7), 8))
    ragged = LongitudinalDataset([subject(i, n) for i, n in enumerate(lengths)])
    base = fit(ragged, 0.5, "WI")
    for c in (1e-3, -2.5, 1e3):
        moved = LongitudinalDataset(
            [
                Subject(id=s.id, covariates=s.covariates, responses=c * s.responses + s.covariates @ delta)
                for s in subject_rows(ragged)
            ]
        )
        res = fit(moved, 0.5, "WI")
        scale = abs(c) * base.std_errors
        assert np.max(np.abs(res.beta - (c * base.beta + delta)) / scale) < 1e-9
        # Omega stops once its relative change is below 1e-6, so the SEs of
        # the two fixed points agree to about that; measured at most 8.8e-8
        assert np.max(np.abs(res.std_errors / scale - 1.0)) < 1e-6


def smoothed_wi_root(ds, tau, beta):
    """Joint root of the smoothed WI equation and its Omega fixed point:
    Newton steps in beta with Omega <- sandwich(beta, radii(Omega))."""
    gamma, sigma = wi_weights(ds, tau)
    state = SmoothingState.from_omega(ds, np.eye(ds.p) / ds.m)
    for _ in range(200):
        U = smoothed_estimating_function(ds, beta, state, gamma, sigma, tau)
        step = np.linalg.solve(smoothed_jacobian(ds, beta, state, gamma, sigma, tau), U)
        omega = sandwich_covariance(ds, beta, state, gamma, sigma, tau)
        change = np.linalg.norm(omega - state.omega) / np.linalg.norm(state.omega)
        beta = beta + step
        state = SmoothingState.from_omega(ds, omega)
        if np.max(np.abs(step)) < 1e-10 and change < 1e-10:
            return beta
    raise AssertionError("smoothed WI root did not converge")


def test_wi_pqr_coincide_at_zero_lags(rng, monkeypatch):
    ds = random_dataset(rng, 50, 3, 2)
    monkeypatch.setattr(
        solver_mod, "estimate_lag_correlations", lambda d, s: np.zeros(d.max_n - 1)
    )
    fits = fit_many(ds, 0.5, ["WI", "PQR"], gamma_mode="identity")
    # at zero lags and unit weights PQR solves the smoothed WI equation
    root = smoothed_wi_root(ds, 0.5, fits["WI"].beta)
    assert np.max(np.abs(fits["PQR"].beta - root)) <= 1e-6


def test_smoothing_equivalence_on_fixed_dataset(rng):
    ds = random_dataset(rng, 40, 3, 2)
    beta = np.array([0.3, -0.4])
    tau = 0.5
    gamma, sigma = wi_weights(ds, tau)
    hard = np.zeros(2)
    for i in range(ds.m):
        rows = slice(ds.offsets[i], ds.offsets[i + 1])
        psi = score_psi(ds.y[rows] - ds.X[rows] @ beta, tau)
        hard += ds.X[rows].T @ np.linalg.solve(subject_matrix(sigma, ds, i), psi)
    gaps = []
    for c in (1e-2, 1e-4, 1e-6):
        state = SmoothingState.from_omega(ds, c * np.eye(2))
        U = smoothed_estimating_function(ds, beta, state, gamma, sigma, tau)
        gaps.append(np.linalg.norm(U - hard) / np.sqrt(ds.m))
    assert gaps[0] >= gaps[1] - 1e-12 >= gaps[2] - 1e-12
    assert gaps[-1] <= 1e-3


def test_non_convergence_is_flagged_not_raised(rng, monkeypatch):
    ds = random_dataset(rng, 30, 2, 2)
    monkeypatch.setattr(solver_mod, "MAX_OUTER_ITERATIONS", 1)
    res = fit(ds, 0.5, "PQR")
    assert res.iterations == 1
    assert not res.converged


def test_wi_se_close_to_asymptotic_median_variance():
    ses = []
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        ds = scalar_dataset(rng.standard_normal(200))
        res = fit(ds, 0.5, "WI")
        ses.append(res.std_errors[0])
    target = 1.0 / (2.0 * 0.3989423 * np.sqrt(200))
    assert abs(np.median(ses) - target) <= 0.3 * target


def test_fit_many_returns_requested_methods(rng):
    ds = random_dataset(rng, 30, 3, 2)
    fits = fit_many(ds, 0.5, ["pqr", "wi"])
    assert set(fits) == {"PQR", "WI"}
    single = fit(ds, 0.5, "aqr")
    assert single.method == "AQR"


def test_identity_gamma_mode(rng):
    ds = random_dataset(rng, 30, 3, 2)
    res = fit(ds, 0.5, "PQR", gamma_mode="identity")
    assert res.converged
    beta0 = solver_mod._check_loss_minimizer(ds.X, ds.y, 0.5)
    want = solver_mod._fit_weighted(ds, 0.5, "PQR", beta0, identity_sparsity(ds))
    for name in ("beta", "omega", "std_errors", "rho_hat", "iterations", "converged"):
        assert np.array_equal(getattr(res, name), getattr(want, name))
    assert not np.array_equal(res.beta, fit(ds, 0.5, "PQR").beta)


def test_singleton_occasions_fit(rng):
    # n = 1 panels have no lag information; weighted fits still run
    ds = random_dataset(rng, 40, 1, 2)
    fits = fit_many(ds, 0.5, ["WI", "PQR", "AQR"])
    for res in fits.values():
        assert res.converged
        assert res.rho_hat.size == 0


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    lengths=st.lists(st.integers(1, 6), min_size=12, max_size=40),
    seed=st.integers(0, 2**32 - 1),
    tau=st.sampled_from([0.25, 0.5, 0.75]),
)
# AQR's Omega collapses to about 1e-28 here, and the tiny Newton steps of a
# huge G~ once passed the beta test of a fit that is not a root
@example(lengths=[1] * 11 + [3], seed=1, tau=0.5)
def test_converged_fits_are_verified_roots(lengths, seed, tau):
    # unbalanced panels with singletons: y = 0.5 + x + N(0, 1)
    rng = np.random.default_rng(seed)
    N = sum(lengths)
    X = np.column_stack([np.ones(N), rng.standard_normal(N)])
    y = X @ [0.5, 1.0] + rng.standard_normal(N)
    ds = LongitudinalDataset.from_rows(X, y, lengths, [str(i) for i in range(len(lengths))])
    # divergent fits overflow Omega
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            fits = fit_many(ds, tau, ["WI", "PQR", "AQR"])
        except WqregError:
            return
        for res in fits.values():
            if not res.converged:
                continue
            for value in (res.beta, res.std_errors, res.omega):
                assert np.all(np.isfinite(value))
            if res.method != "WI":
                U = smoothed_estimating_function(ds, res.beta, *fit_state(ds, tau, res), tau)
                assert np.max(np.abs(U)) <= 1e-6


def memo_case(name):
    """A weighted-loop input: replication 0 of a tau=0.95 design, on which PQR
    and AQR both run to the iteration cap, a ragged panel with 1 to 8
    occasions, or an n = 1 panel. Returns the dataset, tau, start and Gamma."""
    if name == "cap":
        tau = 0.95
        ds = generate_dataset(SimConfig(m=60, n=4, rho=0.9, taus=(tau,), master_seed=1), 0)
    else:
        tau = 0.3 if name == "ragged" else 0.5
        rng = np.random.default_rng(11)
        lengths = rng.integers(1, 9, size=40) if name == "ragged" else np.ones(50, dtype=int)
        X = np.column_stack([np.ones(lengths.sum()), rng.standard_normal(lengths.sum())])
        y = X @ [0.5, 1.0] + rng.standard_normal(lengths.sum())
        ds = LongitudinalDataset.from_rows(X, y, lengths, [str(i) for i in range(lengths.size)])
    beta0 = solver_mod._check_loss_minimizer(ds.X, ds.y, tau)
    return ds, tau, beta0, solver_mod._gamma_for(ds, tau, "hk")


@pytest.mark.parametrize("method", ["PQR", "AQR"])
@pytest.mark.parametrize("case", ["cap", "ragged", "single"])
@pytest.mark.parametrize("halvings", [20, 0])
def test_newton_loop_memo_equals_rebuilding_sigma_every_iterate(halvings, case, method, monkeypatch):
    # with no halvings every step runs out of them and is taken unchecked, so
    # the residual the loop carries is the one formed for that untried step;
    # full steps may overflow Omega
    monkeypatch.setattr(solver_mod, "MAX_HALVINGS", halvings)
    ds, tau, beta0, gamma = memo_case(case)
    with np.errstate(over="ignore", invalid="ignore") if halvings == 0 else nullcontext():
        got = solver_mod._newton_loop(ds, tau, method, beta0, gamma)
        want = newton_loop_reference(ds, tau, method, beta0, gamma)
    pairs = [(got[0], want[0]), (got[1].omega, want[1].omega), (got[3], want[3]),
             (got[2].correlation, want[2].correlation), (got[4], want[4]), (got[5], want[5]),
             (got[6], want[6]), (got[7], want[7])]
    for a, b in pairs:
        assert np.array_equal(a, b, equal_nan=True)


@pytest.mark.parametrize("method", ["PQR", "AQR"])
@pytest.mark.parametrize("case", ["cap", "ragged", "single"])
@pytest.mark.parametrize("halvings", [20, 0])
def test_weighted_omega_is_the_sandwich_at_the_reported_beta(halvings, case, method, monkeypatch):
    # the sandwich takes the residual and whitened design the Newton loop or
    # the root refinement ends with; with no halvings the refinement's first
    # step runs out of them, so the root it returns is its start, not its
    # last iterate
    monkeypatch.setattr(solver_mod, "MAX_HALVINGS", halvings)
    ds, tau, _, _ = memo_case(case)
    with np.errstate(over="ignore", invalid="ignore") if halvings == 0 else nullcontext():
        res = fit(ds, tau, method)
        want = sandwich_covariance(ds, res.beta, *fit_state(ds, tau, res), tau)
    assert np.array_equal(res.omega, want)


@pytest.mark.parametrize("method", ["PQR", "AQR"])
def test_newton_loop_memo_skips_repeated_sign_patterns(method, monkeypatch):
    ds, tau, beta0, gamma = memo_case("cap")
    calls = []

    def counting(*args):
        calls.append(1)
        return assemble_working_covariance(*args)

    monkeypatch.setattr(solver_mod, "assemble_working_covariance", counting)
    iterations = solver_mod._newton_loop(ds, tau, method, beta0, gamma)[4]
    assert iterations == solver_mod.MAX_OUTER_ITERATIONS
    assert 0 < len(calls) < iterations
