"""Brute-force reference implementations."""

import numpy as np
import pytest

from wqreg import DataError, LongitudinalDataset

from conftest import scalar_dataset
from oracle import (
    check_objective,
    exact_wi_fit,
    finite_difference_jacobian,
    indicator_correlation_oracle,
)


def test_exact_fit_median_of_five():
    ds = scalar_dataset([1.0, 2.0, 3.0, 4.0, 5.0])
    res = exact_wi_fit(ds, 0.5)
    assert res.beta[0] == pytest.approx(3.0)
    assert res.objective == pytest.approx(3.0)


def test_exact_fit_first_quartile_tie():
    ds = scalar_dataset([1.0, 2.0, 3.0, 4.0])
    res = exact_wi_fit(ds, 0.25)
    # the minimizer set is the interval [1, 2]; 2 attains the same objective
    assert res.objective == pytest.approx(1.5)
    obj_at_2 = check_objective(ds.X, ds.y, np.array([2.0]), 0.25)
    assert obj_at_2 == pytest.approx(res.objective)


def test_exact_fit_objective_consistent():
    ds = scalar_dataset([0.3, -1.2, 2.5, 0.9, -0.4])
    res = exact_wi_fit(ds, 0.75)
    assert res.objective == pytest.approx(
        check_objective(ds.X, ds.y, res.beta, 0.75), abs=1e-12
    )


def test_exact_fit_local_optimality_probe(rng):
    X = np.column_stack([np.ones(12), rng.standard_normal(12)])
    ds = LongitudinalDataset(X, rng.standard_normal(12), np.ones(12, dtype=int), range(12))
    res = exact_wi_fit(ds, 0.5)
    for _ in range(1000):
        delta = rng.standard_normal(2)
        delta *= rng.random() * 0.1 / max(np.linalg.norm(delta), 1e-12)
        assert check_objective(ds.X, ds.y, res.beta + delta, 0.5) >= res.objective - 1e-12


def test_exact_fit_guards():
    big = scalar_dataset(list(range(41)))
    with pytest.raises(ValueError):
        exact_wi_fit(big, 0.5)

    wide = LongitudinalDataset([[1.0, 2.0, 3.0, 4.0]], [1.0], [1], [0])
    with pytest.raises(ValueError):
        exact_wi_fit(wide, 0.5)

    degenerate = LongitudinalDataset(np.zeros((3, 1)), np.ones(3), [1, 1, 1], range(3))
    with pytest.raises(DataError):
        exact_wi_fit(degenerate, 0.5)


def test_finite_difference_jacobian_linear_exact(rng):
    A = rng.standard_normal((3, 3))
    J = finite_difference_jacobian(lambda b: A @ b, rng.standard_normal(3), 1e-5)
    assert np.max(np.abs(J - A)) < 1e-9


def test_finite_difference_jacobian_quadratic_at_zero():
    step = 1e-5
    J = finite_difference_jacobian(lambda b: np.array([b[0] ** 2]), np.zeros(1), step)
    assert abs(J[0, 0]) < step  # central differences kill the even term


def test_finite_difference_jacobian_rejects_bad_step():
    with pytest.raises(ValueError):
        finite_difference_jacobian(lambda b: b, np.zeros(1), 0.0)


def test_indicator_correlation_values():
    assert indicator_correlation_oracle(0.0) == 0.0
    assert indicator_correlation_oracle(1 - 1e-12) == pytest.approx(1.0, abs=1e-5)
    # frozen from an independent evaluation: arcsin(0.9) = 1.11976951,
    # times 2/pi = 0.71286741 (0.7129 to four decimals)
    assert indicator_correlation_oracle(0.9) == pytest.approx(0.7128674, abs=1e-5)
    assert indicator_correlation_oracle(-0.9) == pytest.approx(-0.7128674, abs=1e-5)
    with pytest.raises(ValueError):
        indicator_correlation_oracle(1.0)


def test_indicator_correlation_against_monte_carlo():
    rho = 0.9
    rng = np.random.default_rng(1234)
    z1 = rng.standard_normal(10_000_000)
    z2 = rho * z1 + np.sqrt(1 - rho * rho) * rng.standard_normal(10_000_000)
    corr = np.corrcoef(z1 < 0, z2 < 0)[0, 1]
    assert abs(corr - indicator_correlation_oracle(rho)) < 0.002
