"""The WI check-loss LP: the certified interior-point vertex against HiGHS."""

import warnings

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import wqreg.solver as solver_mod

INSIDE = 1e-7  # HiGHS dual values this far from a bound count as strictly inside


def highs_dual(X, y, tau):
    """beta and d of the dual Koenker-Bassett LP, solved by HiGHS."""
    res = linprog(-y, A_eq=X.T, b_eq=np.zeros(X.shape[1]), bounds=(tau - 1, tau), method="highs")
    assert res.status == 0
    return -res.eqlin.marginals, res.x


def unique_by_complementarity(X, d, tau):
    """Every minimizer has zero residuals where d lies strictly inside its
    bounds; when those rows have full column rank the minimizer is unique."""
    Z = (d > tau - 1 + INSIDE) & (d < tau - INSIDE)
    return np.linalg.matrix_rank(X[Z]) == X.shape[1]


def certified(X, y, tau):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return solver_mod._certified_vertex(X, y, tau)


def assert_matches_highs(X, y, tau):
    beta, d = highs_dual(X, y, tau)
    vertex = certified(X, y, tau)
    scale = max(1.0, float(np.max(np.abs(beta))))
    if vertex is not None:
        # a certified vertex is the unique minimizer, so HiGHS finds it too
        assert np.max(np.abs(vertex - beta)) <= 1e-10 * scale
    if unique_by_complementarity(X, d, tau):
        exact = solver_mod._check_loss_minimizer(X, y, tau)
        assert np.max(np.abs(exact - beta)) <= 1e-10 * scale
    return vertex is not None


taus = st.floats(0.03, 0.97)
seeds = st.integers(0, 2**32 - 1)
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


@SETTINGS
@given(seed=seeds, n=st.integers(3, 40), tau=taus, column=st.booleans(), scale=st.sampled_from([1e-3, 1.0, 1e4]))
def test_vertex_matches_highs_for_one_coefficient(seed, n, tau, column, scale):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.5, 2.0, (n, 1)) if column else np.ones((n, 1))
    y = scale * rng.standard_normal(n)
    assert_matches_highs(X, y, tau)


@SETTINGS
@given(seed=seeds, m=st.integers(4, 30), tau=taus, times=st.integers(1, 5), grid=st.booleans())
def test_vertex_matches_highs_on_binary_and_integer_time_designs(seed, m, tau, times, grid):
    # intercept, binary treatment, integer time and their product: many
    # p-row subsets are singular
    rng = np.random.default_rng(seed)
    treat = (rng.random(m) < 0.5).astype(float)
    time = rng.integers(0, times + 1, m).astype(float)
    X = np.column_stack([np.ones(m), treat, time, treat * time])
    y = X @ [1.0, 0.5, 0.3, -0.2] + rng.standard_normal(m)
    if grid:
        y = np.round(2.0 * y) / 2.0  # tied responses
    assume(np.linalg.matrix_rank(X) == 4)  # fit_many rejects the rest
    assert_matches_highs(X, y, tau)


@SETTINGS
@given(seed=seeds, m=st.integers(5, 30), p=st.integers(1, 3), copies=st.integers(1, 6), tau=taus)
def test_vertex_matches_highs_with_duplicated_rows(seed, m, p, copies, tau):
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(m), rng.standard_normal((m, p - 1))])
    y = X @ rng.standard_normal(p) + rng.standard_normal(m)
    twice = rng.integers(0, m, copies)
    assert_matches_highs(np.vstack([X, X[twice]]), np.concatenate([y, y[twice]]), tau)


def test_vertex_check_certifies_continuous_designs():
    # the fast path is the common one: on continuous data with N tau not an
    # integer the optimum is unique and non-degenerate
    rng = np.random.default_rng(3)
    passed = 0
    for _ in range(20):
        X = np.column_stack([np.ones(101), rng.standard_normal((101, 2))])
        y = X @ [1.0, -0.5, 2.0] + rng.standard_normal(101)
        passed += assert_matches_highs(X, y, 0.37)
    assert passed >= 18


def test_vertex_check_rejects_ties():
    # every b in [2, 3] minimizes at tau = 0.5, so no vertex is certified
    X, y = np.ones((4, 1)), np.array([1.0, 2.0, 3.0, 4.0])
    assert certified(X, y, 0.5) is None
    assert abs(solver_mod._check_loss_minimizer(X, y, 0.5)[0] - 2.5) <= 1e-9
