"""Data generation, replication harness, and summary metrics."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats
from scipy.linalg import toeplitz
from scipy.special import ndtr

import wqreg
import wqreg.solver as solver_mod
from wqreg import SimConfig, SolverError, fit, run_study
from wqreg.simulation import (
    BETA_TRUE,
    ReplicationRecord,
    SimStudyReport,
    _marginal_errors,
    _replicate,
    ar1_covariance,
    generate_dataset,
    summarize,
)

from oracle import sample_errors, subject_rows


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(m=1)
    with pytest.raises(ValueError):
        SimConfig(rho=1.0)
    with pytest.raises(ValueError):
        SimConfig(rho=-0.1)
    with pytest.raises(ValueError):
        SimConfig(error_case="cauchy")
    with pytest.raises(ValueError):
        SimConfig(taus=())
    # a repeated tau would pool its copies' fits into one summary cell
    with pytest.raises(ValueError, match="repeat"):
        SimConfig(taus=(0.5, 0.25, 0.5))
    with pytest.raises(ValueError):
        SimConfig(methods=("WI", "XX"))
    with pytest.raises(ValueError):
        SimConfig(methods=())
    # each error case has one name, matched without regard to case
    with pytest.raises(ValueError):
        SimConfig(error_case="gaussian")
    cfg = SimConfig(error_case="Normal", methods=("wi", "pqr"))
    assert cfg.error_case == "normal"
    assert cfg.methods == ("WI", "PQR")
    assert SimConfig(methods=("aqr", "WI", "AQR", "Wi")).methods == ("AQR", "WI")


def test_ar1_covariance_values():
    R = ar1_covariance(0.5, 3)
    assert np.allclose(R, [[1, 0.5, 0.25], [0.5, 1, 0.5], [0.25, 0.5, 1]])
    assert np.allclose(ar1_covariance(0.0, 4), np.eye(4))
    assert np.allclose(np.linalg.cholesky(ar1_covariance(0.9, 8)) @
                       np.linalg.cholesky(ar1_covariance(0.9, 8)).T,
                       ar1_covariance(0.9, 8))
    # numpy indexing builds the same matrix, bit for bit, as scipy's toeplitz
    for rho in (0.0, 0.5, 0.9):
        for n in range(1, 13):
            assert np.array_equal(ar1_covariance(rho, n), toeplitz(rho ** np.arange(n)))


@pytest.mark.parametrize("case,tau,n_draws,tol", [
    ("normal", 0.25, 400_000, 0.01),
    ("normal", 0.95, 400_000, 0.01),
    ("chisq", 0.5, 200_000, 0.02),
    ("t", 0.5, 200_000, 0.02),
])
def test_error_quantile_centering(case, tau, n_draws, tol):
    rng = np.random.default_rng(99)
    draws = np.concatenate(
        [sample_errors(case, 0.5, 4, tau, rng) for _ in range(n_draws // 4)]
    )
    assert abs(np.quantile(draws, tau)) <= tol


def test_error_within_subject_correlation():
    rng = np.random.default_rng(3)
    reps = 25_000
    block = np.array([sample_errors("normal", 0.9, 4, 0.5, rng) for _ in range(reps)])
    r = np.corrcoef(block[:, 0], block[:, 1])[0, 1]
    assert abs(r - 0.9) <= 0.02

    rng = np.random.default_rng(4)
    block = np.array([sample_errors("normal", 0.0, 4, 0.5, rng) for _ in range(reps)])
    r = np.corrcoef(block[:, 0], block[:, 1])[0, 1]
    assert abs(r) <= 0.02


def test_sample_errors_rejects_unknown_case():
    with pytest.raises(ValueError, match="bogus"):
        sample_errors("bogus", 0.5, 4, 0.5, np.random.default_rng(0))


@pytest.mark.parametrize("tau", [0.05, 0.25, 0.5, 0.83, 0.95])
def test_marginal_errors_equal_the_scipy_stats_formulas(tau):
    rng = np.random.default_rng(11)
    z = 3.0 * rng.standard_normal((500, 6))
    w = rng.chisquare(3, (500, 1))
    u = np.clip(ndtr(z), 1e-16, 1.0 - 1e-16)
    expected = {
        "normal": z - stats.norm.ppf(tau),
        "chisq": stats.chi2.ppf(u, df=2) - stats.chi2.ppf(tau, df=2),
        "t": z / np.sqrt(w / 3.0) - stats.t.ppf(tau, df=3),
    }
    for case, ref in expected.items():
        assert np.array_equal(_marginal_errors(case, z, w, tau), ref)


def test_package_import_leaves_scipy_stats_unloaded():
    # a bare `import wqreg` must not load the CLI, which the benchmark imports separately
    code = (
        "import sys, wqreg; cli = 'wqreg.cli' in sys.modules; import wqreg.cli; "
        "print(cli, 'scipy.stats' in sys.modules)"
    )
    src = str(Path(wqreg.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "False False"


def test_package_surface_is_the_documented_one():
    assert sorted(wqreg.__all__) == [
        "DataError",
        "FitResult",
        "LongitudinalDataset",
        "SchemaError",
        "SimConfig",
        "SolverError",
        "WqregError",
        "confidence_intervals",
        "fit",
        "fit_many",
        "run_study",
    ]
    for name in wqreg.__all__:
        assert getattr(wqreg, name) is not None


def test_chisq_errors_are_skewed():
    rng = np.random.default_rng(11)
    draws = np.concatenate(
        [sample_errors("chisq", 0.5, 4, 0.5, rng) for _ in range(20_000)]
    )
    assert stats.skew(draws) > 0.5


def test_generate_dataset_is_deterministic():
    config = SimConfig(m=30, n=4, rho=0.5, taus=(0.5,), replications=2, master_seed=7)
    a = generate_dataset(config, 1)
    b = generate_dataset(config, 1)
    assert np.array_equal(a.X, b.X)
    assert np.array_equal(a.y, b.y)
    c = generate_dataset(config, 0)
    assert not np.array_equal(a.y, c.y)


def test_generate_dataset_draw_order_and_design():
    config = SimConfig(m=400, n=4, rho=0.5, taus=(0.5,), replications=1, master_seed=55)
    ds = generate_dataset(config, 0)
    assert ds.m == 400
    assert ds.n_obs == 1600
    X = ds.X
    assert np.allclose(X[:, 0], 1.0)
    assert set(np.unique(X[:, 1])) <= {0.0, 1.0}
    assert abs(X[:, 1].mean() - 0.5) <= 0.05
    assert abs(X[:, 2].mean()) <= 0.1

    # replay the per-subject stream: x1, x2, then the error block
    seq = np.random.SeedSequence([config.master_seed, 0, 0])
    rng = np.random.default_rng(seq)
    x1 = (rng.random(4) < 0.5).astype(float)
    x2 = rng.standard_normal(4)
    _, X_0, y_0 = next(subject_rows(ds))
    assert np.array_equal(X_0[:, 1], x1)
    assert np.allclose(X_0[:, 2], x2)
    eps = y_0 - X_0 @ np.array(BETA_TRUE)
    z = np.linalg.cholesky(ar1_covariance(0.5, 4)) @ rng.standard_normal(4)
    assert np.allclose(eps, z - stats.norm.ppf(0.5), atol=1e-12)

    # the stream contract, bit for bit: every subject of every error case
    # replays as x1, x2, then sample_errors on the rest of its stream
    beta = np.array(BETA_TRUE)
    for case in ("normal", "chisq", "t"):
        cfg = SimConfig(m=60, n=5, rho=0.7, error_case=case, taus=(0.25,),
                        replications=3, master_seed=55)
        ds = generate_dataset(cfg, 2, tau=0.95)
        for i, (_, X_i, y_i) in enumerate(subject_rows(ds)):
            rng = np.random.default_rng(np.random.SeedSequence([55, 2, i]))
            x1 = (rng.random(5) < 0.5).astype(float)
            x2 = rng.standard_normal(5)
            X = np.column_stack([np.ones(5), x1, x2])
            eps = sample_errors(case, 0.7, 5, 0.95, rng)
            assert np.array_equal(X_i, X), (case, i)
            assert np.array_equal(y_i, X @ beta + eps), (case, i)


def test_generate_dataset_centers_depend_on_tau():
    config = SimConfig(m=10, n=3, rho=0.3, taus=(0.25, 0.75), replications=1, master_seed=9)
    lo = generate_dataset(config, 0, tau=0.25)
    hi = generate_dataset(config, 0, tau=0.75)
    shift = stats.norm.ppf(0.75) - stats.norm.ppf(0.25)
    assert np.allclose(lo.y - hi.y, shift, atol=1e-12)


def test_summarize_hand_example():
    truth = np.array([-0.5, 0.5, 1.0])
    records = [
        ReplicationRecord(0.5, "WI", r, np.array([b, 0.5, 1.0]),
                          np.array([0.1, 0.1, 0.1]), True)
        for r, b in enumerate([-0.1, 0.1])
    ]
    report = summarize(records, truth)
    row = report.row(0.5, "WI", 0)
    assert row.bias == pytest.approx(0.5)
    assert row.sd == pytest.approx(np.std([-0.1, 0.1], ddof=1))
    assert row.sd == pytest.approx(0.1414214, abs=1e-6)
    assert row.mean_se == pytest.approx(0.1)
    assert row.eff == pytest.approx(1.0)
    assert row.coverage == pytest.approx(0.0)  # bias of 0.5 with SE 0.1 never covers
    assert row.n_fail == 0

    exact = report.row(0.5, "WI", 1)
    assert exact.bias == pytest.approx(0.0)
    assert exact.coverage == pytest.approx(1.0)


def test_summarize_single_replication_and_failures():
    truth = np.array([-0.5, 0.5, 1.0])
    records = [
        ReplicationRecord(0.5, "WI", 0, np.array([-0.4, 0.5, 1.0]),
                          np.array([0.2, 0.2, 0.2]), True),
        ReplicationRecord(0.5, "PQR", 0, np.array([-0.45, 0.5, 1.0]),
                          np.array([0.2, 0.2, 0.2]), True),
        ReplicationRecord(0.5, "PQR", 1, np.full(3, np.nan), np.full(3, np.nan), False),
    ]
    report = summarize(records, truth)
    wi = report.row(0.5, "WI", 0)
    assert wi.sd is None  # one usable replication has no spread estimate
    assert wi.eff == pytest.approx(1.0)
    pqr = report.row(0.5, "PQR", 0)
    assert pqr.n_fail == 1
    assert pqr.n_used == 1
    # MSE ratio with zero variance cells: 0.1^2 / 0.05^2
    assert pqr.eff == pytest.approx(4.0)


def test_run_study_smoke_and_determinism():
    config = SimConfig(m=40, n=3, rho=0.5, taus=(0.5,), methods=("WI", "PQR"),
                       replications=4, master_seed=31)
    rep1 = run_study(config)
    rep2 = run_study(config)
    assert isinstance(rep1, SimStudyReport)
    assert rep1.replications == 4
    assert rep1.taus == (0.5,)
    assert rep1.methods == ("WI", "PQR")
    for a, b in zip(rep1.rows, rep2.rows):
        assert a == b
    wi_rows = [r for r in rep1.rows if r.method == "WI"]
    assert all(r.eff == 1.0 for r in wi_rows)
    assert {r.coefficient for r in rep1.rows} == {"beta0", "beta1", "beta2"}


def test_run_study_parallel_matches_serial():
    config = SimConfig(m=30, n=3, rho=0.3, taus=(0.5,), methods=("WI", "PQR"),
                       replications=6, master_seed=13)
    serial = run_study(config, workers=1)
    parallel = run_study(config, workers=2)
    assert serial.rows == parallel.rows


def test_run_study_wi_always_recorded():
    config = SimConfig(m=30, n=3, rho=0.3, taus=(0.5,), methods=("PQR",),
                       replications=2, master_seed=17)
    report = run_study(config)
    # WI is fitted and reported regardless: it anchors the EFF column
    assert report.methods == ("WI", "PQR")
    assert {r.method for r in report.rows} == {"WI", "PQR"}
    assert all(np.isfinite(r.eff) for r in report.rows)


def test_replicate_keeps_the_fits_of_methods_that_did_not_raise(monkeypatch):
    # AQR's fit raises, so the joint fit raises; WI and PQR are refitted
    # alone and kept
    config = SimConfig(m=60, n=4, rho=0.9, taus=(0.95,), master_seed=1)
    ds = generate_dataset(config, 7)
    weighted = solver_mod._fit_weighted

    def aqr_raises(dataset, tau, method, beta0, gamma):
        if method == "AQR":
            raise SolverError("smoothed Jacobian stayed singular under radius inflation")
        return weighted(dataset, tau, method, beta0, gamma)

    monkeypatch.setattr(solver_mod, "_fit_weighted", aqr_raises)
    with pytest.raises(SolverError):
        fit(ds, 0.95, "AQR")
    records = {r.method: r for r in _replicate(config, 7)}
    for method in ("WI", "PQR"):
        want = fit(ds, 0.95, method)
        got = records[method]
        assert np.array_equal(got.beta, want.beta)
        assert np.array_equal(got.std_errors, want.std_errors)
        assert got.converged == want.converged
    assert records["WI"].converged
    aqr = records["AQR"]
    assert np.all(np.isnan(aqr.beta)) and np.all(np.isnan(aqr.std_errors))
    assert not aqr.converged


def test_report_row_lookup():
    config = SimConfig(m=30, n=3, rho=0.3, taus=(0.5,), methods=("WI",),
                       replications=2, master_seed=23)
    report = run_study(config)
    row = report.row(0.5, "WI", 2)
    assert row.coefficient == "beta2"
    assert report.row(0.5, "wi", "beta2") is row
    with pytest.raises(KeyError):
        report.row(0.25, "WI", "beta0")
