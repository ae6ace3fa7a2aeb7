"""Acceptance gate: nine independent checks, one printed verdict line each.

The two 200-replication studies (high and low within-subject correlation)
are computed once per session and shared by the efficiency, coverage, and
calibration checks.
"""

import time

import numpy as np
import pytest

from wqreg import SimConfig, fit, fit_many, run_study
from wqreg.correlation import (
    ScoreVariances,
    assemble_working_covariance,
    estimate_lag_correlations,
)
from wqreg.model import score_psi
from wqreg.simulation import generate_dataset
from wqreg.solver import SmoothingState
from wqreg.sparsity import identity_sparsity

from conftest import random_dataset
from oracle import (
    check_objective,
    exact_wi_fit,
    finite_difference_jacobian,
    smoothed_estimating_function,
    smoothed_jacobian,
)

COEFS = ("beta0", "beta1", "beta2")


def verdict(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def normal_study(rho):
    config = SimConfig(
        m=200,
        n=4,
        rho=rho,
        error_case="normal",
        taus=(0.5,),
        methods=("WI", "PQR", "AQR"),
        replications=200,
        master_seed=20240901,
    )
    return run_study(config)


@pytest.fixture(scope="module")
def study_high():
    start = time.perf_counter()
    report = normal_study(0.9)
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def study_low():
    return normal_study(0.1)


def wi_weights(ds, tau):
    variances = ScoreVariances(np.full(ds.max_n, tau * (1.0 - tau)))
    return identity_sparsity(ds), assemble_working_covariance(variances, np.eye(ds.max_n), ds)


def test_wi_matches_exact_oracle():
    rng = np.random.default_rng(20240901)
    start = time.perf_counter()
    worst_sup = 0.0
    worst_excess = 0.0
    for _ in range(100):
        m = int(rng.integers(5, 16))
        p = int(rng.integers(1, 3))
        tau = float(rng.choice([0.25, 0.5, 0.75]))
        ds = random_dataset(rng, m, 1, p)
        res = fit(ds, tau, "WI")
        oracle = exact_wi_fit(ds, tau)
        worst_sup = max(worst_sup, float(np.max(np.abs(res.beta - oracle.beta))))
        excess = check_objective(ds.X, ds.y, res.beta, tau) - oracle.objective
        worst_excess = max(worst_excess, excess / (1.0 + abs(oracle.objective)))
    elapsed = time.perf_counter() - start
    ok = worst_sup <= 0.02 and worst_excess <= 1e-6 and elapsed < 30.0
    verdict(
        "wi-exact-oracle",
        ok,
        f"100 instances, sup-dist {worst_sup:.2e}, rel objective excess "
        f"{worst_excess:.2e}, {elapsed:.1f}s",
    )


def test_smoothed_equations_approach_unsmoothed():
    rng = np.random.default_rng(20240901)
    start = time.perf_counter()
    monotone = True
    worst_final = 0.0
    beta = np.array([0.3, -0.4])
    tau = 0.5
    done = 0
    while done < 20:
        ds = random_dataset(rng, 30, 3, 2)
        # the comparison point must be generic: a residual sitting within a
        # few smallest-radius widths of zero keeps the hard and smoothed
        # scores apart no matter how small c gets, so redraw those datasets
        resid = ds.y - ds.X @ beta
        radii = 1e-3 * np.linalg.norm(ds.X, axis=1)
        if np.min(np.abs(resid) / radii) < 4.5:
            continue
        done += 1
        gamma, sigma = wi_weights(ds, tau)
        hard = np.zeros(2)
        for i in range(ds.m):
            rows = slice(ds.offsets[i], ds.offsets[i + 1])
            psi = score_psi(ds.y[rows] - ds.X[rows] @ beta, tau)
            hard += ds.X[rows].T @ psi / (tau * (1.0 - tau))  # Sigma_i = tau (1 - tau) I
        gaps = []
        for c in (1e-2, 1e-4, 1e-6):
            state = SmoothingState.from_omega(ds, c * np.eye(2))
            U = smoothed_estimating_function(ds, beta, state, gamma, sigma, tau)
            gaps.append(float(np.linalg.norm(U - hard)) / np.sqrt(ds.m))
        monotone &= gaps[0] >= gaps[1] - 1e-12 and gaps[1] >= gaps[2] - 1e-12
        worst_final = max(worst_final, gaps[2])
    elapsed = time.perf_counter() - start
    ok = monotone and worst_final <= 1e-3 and elapsed < 10.0
    verdict(
        "smoothing-vanishes",
        ok,
        f"20 generic datasets, gaps nonincreasing={monotone}, worst gap at "
        f"c=1e-6 {worst_final:.2e}, {elapsed:.1f}s",
    )


def test_high_correlation_efficiency(study_high):
    report, elapsed = study_high
    bias = [abs(report.row(0.5, "PQR", c).bias) for c in COEFS]
    eff_p = {c: report.row(0.5, "PQR", c).eff for c in COEFS}
    eff_a = {c: report.row(0.5, "AQR", c).eff for c in COEFS}
    ok_bias = max(bias) <= 0.02
    ok_eff = eff_p["beta1"] >= 2.0 and eff_p["beta2"] >= 2.0 and eff_p["beta0"] >= 1.0
    ok_aqr = all(abs(eff_a[c] - eff_p[c]) <= 0.10 * eff_p[c] for c in COEFS)
    ok_time = elapsed <= 600.0
    ok = ok_bias and ok_eff and ok_aqr and ok_time
    verdict(
        "high-correlation-gains",
        ok,
        f"max |bias| {max(bias):.4f}, EFF(PQR) "
        f"{eff_p['beta0']:.2f}/{eff_p['beta1']:.2f}/{eff_p['beta2']:.2f}, "
        f"EFF(AQR) {eff_a['beta0']:.2f}/{eff_a['beta1']:.2f}/{eff_a['beta2']:.2f}, "
        f"{elapsed:.0f}s",
    )


def test_low_correlation_efficiency(study_low):
    effs = [study_low.row(0.5, "PQR", c).eff for c in COEFS]
    ok = all(0.85 <= e <= 1.35 for e in effs)
    verdict(
        "low-correlation-parity",
        ok,
        "EFF(PQR) " + "/".join(f"{e:.3f}" for e in effs),
    )


def test_coverage_calibration(study_high, study_low):
    worst_lo, worst_hi = 1.0, 0.0
    for report in (study_high[0], study_low):
        for method in ("PQR", "AQR"):
            for c in COEFS:
                cov = report.row(0.5, method, c).coverage
                worst_lo = min(worst_lo, cov)
                worst_hi = max(worst_hi, cov)
    ok = worst_lo >= 0.90 and worst_hi <= 0.98
    verdict(
        "coverage-calibration",
        ok,
        f"95% intervals cover between {worst_lo:.3f} and {worst_hi:.3f} "
        "across both studies (PQR and AQR)",
    )


def test_se_tracks_monte_carlo_sd(study_high, study_low):
    worst_lo, worst_hi = np.inf, 0.0
    for report in (study_high[0], study_low):
        for method in ("PQR", "AQR"):
            for c in COEFS:
                row = report.row(0.5, method, c)
                ratio = row.mean_se / row.sd
                worst_lo = min(worst_lo, ratio)
                worst_hi = max(worst_hi, ratio)
    ok = worst_lo >= 0.8 and worst_hi <= 1.2
    verdict(
        "se-sd-calibration",
        ok,
        f"mean SE over MC SD spans [{worst_lo:.3f}, {worst_hi:.3f}] "
        "across both studies (PQR and AQR)",
    )


def test_bias_under_nonnormal_errors():
    worst = {}
    for case in ("chisq", "t"):
        config = SimConfig(
            m=200,
            n=4,
            rho=0.5,
            error_case=case,
            taus=(0.5,),
            methods=("WI", "PQR"),
            replications=200,
            master_seed=20240901,
        )
        report = run_study(config)
        worst[case] = max(abs(report.row(0.5, "PQR", c).bias) for c in COEFS)
    ok = all(v <= 0.03 for v in worst.values())
    verdict(
        "nonnormal-bias",
        ok,
        f"max |bias| chi-square {worst['chisq']:.4f}, t {worst['t']:.4f}",
    )


def test_derivatives_and_invariants():
    rng = np.random.default_rng(11)

    worst_rel = 0.0
    for _ in range(50):
        ds = random_dataset(rng, int(rng.integers(10, 25)), int(rng.integers(1, 4)), 2)
        tau = float(rng.choice([0.25, 0.5, 0.75]))
        gamma, sigma = wi_weights(ds, tau)
        state = SmoothingState.from_omega(ds, np.eye(2) / ds.m)
        beta = rng.standard_normal(2) * 0.5

        def U_of(b):
            return smoothed_estimating_function(ds, b, state, gamma, sigma, tau)

        G = smoothed_jacobian(ds, beta, state, gamma, sigma, tau)
        J = finite_difference_jacobian(U_of, beta, 1e-6)
        worst_rel = max(worst_rel, np.linalg.norm(J + G) / np.linalg.norm(G))
    ok_fd = worst_rel <= 1e-6

    ok_psd = True
    n_fits = 0
    for seed in range(7):
        config = SimConfig(m=60, n=4, rho=0.5, taus=(0.5,), replications=1, master_seed=100 + seed)
        ds = generate_dataset(config, 0)
        for res in fit_many(ds, 0.5, ("WI", "PQR", "AQR")).values():
            if not res.converged:
                continue
            n_fits += 1
            scale = max(float(np.max(np.abs(res.omega))), 1e-300)
            eigs = np.linalg.eigvalsh(res.omega)
            ok_psd &= float(np.max(np.abs(res.omega - res.omega.T))) <= 1e-10 * scale
            ok_psd &= eigs.min() >= -1e-10 * max(eigs.max(), 0.0)

    config = SimConfig(m=100, n=4, rho=0.7, taus=(0.5,), replications=1, master_seed=3)
    ds = generate_dataset(config, 0)
    scores = ds.pad(rng.uniform(-0.5, 0.5, ds.n_obs))
    base = estimate_lag_correlations(ds, scores)
    scaled = estimate_lag_correlations(ds, 3.7 * scores)
    ok_scale = float(np.max(np.abs(base - scaled))) <= 1e-12

    ok = ok_fd and ok_psd and ok_scale
    verdict(
        "derivative-and-sandwich-invariants",
        ok,
        f"FD Jacobian worst rel err {worst_rel:.2e} over 50 instances, "
        f"{n_fits} sandwich matrices symmetric PSD, lag-correlation scale "
        f"shift {0.0 if ok_scale else 1.0:.0f} (module invariants run in the full suite)",
    )


def test_lag_correlation_recovery_large_sample():
    start = time.perf_counter()
    config = SimConfig(m=5000, n=4, rho=0.9, taus=(0.5,), replications=1, master_seed=20240901)
    ds = generate_dataset(config, 0)
    res = fit(ds, 0.5, "PQR")
    elapsed = time.perf_counter() - start
    target = 0.7128674  # (2/pi) arcsin(0.9)
    gap = abs(res.rho_hat[0] - target)
    ok = res.converged and gap <= 0.03 and elapsed < 60.0
    verdict(
        "lag-correlation-recovery",
        ok,
        f"m=5000 first-lag estimate {res.rho_hat[0]:.4f} vs arcsine value "
        f"{target:.4f} (gap {gap:.4f}), {elapsed:.1f}s",
    )
