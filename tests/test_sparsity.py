"""Hall-Sheather bandwidth and density-weight estimation."""

import numpy as np
import pytest

import wqreg.solver as solver_mod
from wqreg import DataError, SimConfig, SolverError, fit
from wqreg.simulation import generate_dataset
from wqreg.sparsity import (
    F_MAX,
    F_MIN,
    estimate_sparsity_hk,
    hall_sheather_bandwidth,
    identity_sparsity,
)

from conftest import scalar_dataset

PHI0 = 0.3989423


def test_hall_sheather_median_value():
    # at tau = 0.5 the bracket is 1.5/(2 pi); frozen from an independent
    # evaluation of the formula
    assert hall_sheather_bandwidth(0.5, 2000) == pytest.approx(0.0771127, abs=1e-6)


def test_hall_sheather_clamps_near_boundary():
    assert hall_sheather_bandwidth(0.95, 100) == pytest.approx(0.04, abs=1e-12)
    h = hall_sheather_bandwidth(0.02, 100)
    assert h == pytest.approx(0.01, abs=1e-12)  # tau - h stays at 0.01


def test_hall_sheather_needs_data():
    with pytest.raises(DataError):
        hall_sheather_bandwidth(0.5, 9)


def test_hk_unit_density():
    ds = scalar_dataset([1.0, 2.0, 3.0])
    h = 0.05
    w = estimate_sparsity_hk(ds, 0.5, h, [0.0], [2 * h])
    assert w.shape == (3,)
    assert np.allclose(w, 1.0)


def test_hk_crossing_falls_back():
    ds = scalar_dataset([1.0, 2.0, 3.0])
    # zero difference everywhere: no valid denominators, weights fall to 1
    w = estimate_sparsity_hk(ds, 0.5, 0.05, [1.0], [1.0])
    assert np.all(np.isfinite(w))
    assert np.allclose(w, 1.0)


def test_hk_partial_crossing_uses_median():
    # two covariate patterns: one valid denominator, one crossing
    from wqreg import LongitudinalDataset

    ds = LongitudinalDataset([[1.0, 0.0], [1.0, 1.0]], [0.0, 0.0], [1, 1], [0, 1])
    h = 0.05
    w = estimate_sparsity_hk(ds, 0.5, h, np.array([0.0, 0.0]), np.array([2 * h, -2 * h]))
    assert w[0] == pytest.approx(1.0)
    assert w[1] == pytest.approx(1.0)  # median of the single valid weight


def test_hk_clamped_range():
    ds = scalar_dataset([1.0, 2.0])
    w_small = estimate_sparsity_hk(ds, 0.5, 0.05, [0.0], [1e9])
    assert np.all(w_small >= F_MIN)
    w_big = estimate_sparsity_hk(ds, 0.5, 0.05, [0.0], [1e-5])
    assert np.all(w_big <= F_MAX)


def test_hk_falls_back_to_identity_when_an_lp_fails(monkeypatch):
    ds = scalar_dataset(np.linspace(0.0, 1.0, 40))
    exact = solver_mod._check_loss_minimizer
    h = hall_sheather_bandwidth(0.5, ds.n_obs)
    hk = estimate_sparsity_hk(ds, 0.5, h, exact(ds.X, ds.y, 0.5 - h), exact(ds.X, ds.y, 0.5 + h))
    assert np.array_equal(solver_mod._gamma_for(ds, 0.5, "hk"), hk)
    assert not np.all(hk == 1.0)

    def fail_above_median(X, y, tau):
        if tau > 0.5:
            raise SolverError("check-loss LP failed")
        return exact(X, y, tau)

    # the LP at tau + h fails, the one at tau - h does not
    monkeypatch.setattr(solver_mod, "_check_loss_minimizer", fail_above_median)
    assert np.array_equal(solver_mod._gamma_for(ds, 0.5, "hk"), identity_sparsity(ds))


def test_identity_sparsity():
    ds = scalar_dataset([1.0, 2.0, 3.0])
    w = identity_sparsity(ds)
    assert w.shape == (3,)
    assert np.all(w == 1.0)


def _mean_hk_weight(m, seed=7):
    config = SimConfig(m=m, n=4, rho=0.5, error_case="normal", taus=(0.5,), replications=1, master_seed=seed)
    ds = generate_dataset(config, 0)
    h = hall_sheather_bandwidth(0.5, ds.n_obs)
    lo = fit(ds, 0.5 - h, "WI")
    hi = fit(ds, 0.5 + h, "WI")
    w = estimate_sparsity_hk(ds, 0.5, h, lo.beta, hi.beta)
    return float(np.mean(w))


def test_hk_recovers_normal_density_at_median():
    # errors are standard normal, so the density at the tau = 0.5 residual
    # quantile is phi(0)
    assert abs(_mean_hk_weight(2000) - PHI0) < 0.05


def test_hk_mean_converges_with_sample_size():
    gaps = [abs(_mean_hk_weight(m) - PHI0) for m in (200, 1000, 5000)]
    assert gaps[0] >= gaps[1] >= gaps[2]
