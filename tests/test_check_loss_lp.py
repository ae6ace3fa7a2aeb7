"""The WI check-loss LP: the certified interior-point vertex and edge, and
the banded auxiliary LPs, against HiGHS."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import null_space
from scipy.optimize import linprog

import wqreg.solver as solver_mod
from wqreg import LongitudinalDataset, fit_many
from wqreg.sparsity import hall_sheather_bandwidth

from oracle import check_objective

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


def dual_point(X, y, tau):
    """The interior point's solution of the full dual LP, or None where its
    normal system is singular."""
    try:
        return solver_mod._interior_point(X, y, tau, (1 - tau) * X.sum(axis=0))
    except np.linalg.LinAlgError:
        return None


def certified(X, y, tau, check=solver_mod._certified_vertex):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        a = dual_point(X, y, tau)
        return None if a is None else check(X, y, tau, a)


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


def counted_linprog(monkeypatch):
    """Count the solver's HiGHS calls."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return linprog(*args, **kwargs)

    monkeypatch.setattr(solver_mod, "linprog", counting)
    return calls


def test_an_edge_needs_no_highs(monkeypatch):
    # every b in [2, 3] minimizes at tau = 0.5 and every b in [1, 2] at 0.25
    def no_highs(*args, **kwargs):
        raise AssertionError("HiGHS called on an edge")

    monkeypatch.setattr(solver_mod, "linprog", no_highs)
    X, y = np.ones((4, 1)), np.array([1.0, 2.0, 3.0, 4.0])
    assert solver_mod._check_loss_minimizer(X, y, 0.5)[0] == 2.5
    assert solver_mod._check_loss_minimizer(X, y, 0.25)[0] == 1.5


def test_a_face_of_dimension_two_still_goes_to_highs(monkeypatch):
    # two groups of four at tau = 0.5: every b with b0 in [2, 3] and b0 + b1
    # in [12, 13] ties, a parallelogram
    X = np.column_stack([np.ones(8), np.repeat([0.0, 1.0], 4)])
    y = np.array([1.0, 2.0, 3.0, 4.0, 11.0, 12.0, 13.0, 14.0])
    calls = counted_linprog(monkeypatch)
    beta = solver_mod._check_loss_minimizer(X, y, 0.5)
    assert 2.0 <= beta[0] <= 3.0 and 12.0 <= beta.sum() <= 13.0
    assert len(calls) == 5  # the dual LP and one per end along each of 2 directions
    # one point more in the second group: b0 + b1 = 13 exactly, so the
    # optimal set is the edge b0 in [2, 3], certified without HiGHS
    calls.clear()
    X, y = np.vstack([X, [1.0, 1.0]]), np.append(y, 15.0)
    beta = solver_mod._check_loss_minimizer(X, y, 0.5)
    assert np.max(np.abs(beta - [2.5, 10.5])) <= 1e-12
    assert calls == []


def highs_face_midpoint(X, y, tau):
    """The midpoint of the optimal set when HiGHS's dual solution leaves it
    an edge, from two HiGHS LPs for its ends; None when it does not."""
    beta, d = highs_dual(X, y, tau)
    null = null_space(X[(d > tau - 1 + INSIDE) & (d < tau - INSIDE)])
    if null.shape[1] != 1:
        return None
    # beta + t v keeps the residuals of the rows at a bound on their side
    r, g = y - X @ beta, X @ null[:, 0]
    upper, lower = d >= tau - INSIDE, d <= tau - 1 + INSIDE
    A_ub = np.concatenate([g[upper], -g[lower]])[:, None]
    b_ub = np.concatenate([np.maximum(r[upper], 0.0), -np.minimum(r[lower], 0.0)])
    ends = [linprog([c], A_ub=A_ub, b_ub=b_ub, bounds=(None, None), method="highs").x[0]
            for c in (1.0, -1.0)]
    return beta + null[:, 0] * np.mean(ends)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=seeds, m=st.integers(4, 30), k=st.integers(1, 29), times=st.integers(1, 5),
       grid=st.booleans(), p=st.integers(2, 4))
def test_edges_match_the_highs_face_midpoint(seed, m, k, times, grid, p):
    # the tie designs of the vertex test, or their first p columns, at
    # tau = k / m, where optimal edges are common
    rng = np.random.default_rng(seed)
    treat = (rng.random(m) < 0.5).astype(float)
    time = rng.integers(0, times + 1, m).astype(float)
    X = np.column_stack([np.ones(m), treat, time, treat * time])[:, :p]
    y = X @ [1.0, 0.5, 0.3, -0.2][:p] + rng.standard_normal(m)
    if grid:
        y = np.round(2.0 * y) / 2.0
    assume(np.linalg.matrix_rank(X) == p)
    tau = min(k, m - 1) / m
    edge = certified(X, y, tau, check=solver_mod._certified_edge)
    if edge is None:
        return  # a vertex, a larger face or an edge the check leaves to HiGHS
    ref = highs_face_midpoint(X, y, tau)
    assert ref is not None
    scale = max(1.0, float(np.max(np.abs(ref))))
    assert np.max(np.abs(edge - ref)) <= 1e-10 * scale
    optimum = -linprog(-y, A_eq=X.T, b_eq=np.zeros(p), bounds=(tau - 1, tau), method="highs").fun
    assert check_objective(X, y, edge, tau) == pytest.approx(optimum, rel=1e-9, abs=1e-12)


def test_edges_are_certified_on_tie_designs():
    # the property above is not vacuous: on these designs with continuous y,
    # every optimal edge was certified in a recount against HiGHS (34 of 34
    # in 300 draws)
    rng = np.random.default_rng(5)
    edges = 0
    for _ in range(60):
        m = int(rng.integers(8, 30))
        treat = (rng.random(m) < 0.5).astype(float)
        time = rng.integers(0, 4, m).astype(float)
        X = np.column_stack([np.ones(m), treat, time, treat * time])
        y = X @ [1.0, 0.5, 0.3, -0.2] + rng.standard_normal(m)
        if np.linalg.matrix_rank(X) == 4:
            tau = int(rng.integers(1, m)) / m
            edges += certified(X, y, tau, check=solver_mod._certified_edge) is not None
    assert edges >= 4


def pilot(X, y, tau):
    """(r, h): the residual of the exact fit at tau and the bandwidth."""
    return y - X @ solver_mod._check_loss_minimizer(X, y, tau), hall_sheather_bandwidth(tau, len(y))


@SETTINGS
@given(seed=seeds, n=st.integers(12, 300), p=st.integers(1, 4), tau=st.floats(0.1, 0.9),
       grid=st.booleans())
def test_banded_lps_equal_the_full_lps(seed, n, p, tau, grid):
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1))])
    y = X @ rng.standard_normal(p) + rng.standard_normal(n)
    if grid:
        y = np.round(2.0 * y) / 2.0
    r, h = pilot(X, y, tau)
    for target in (tau - h, tau + h):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = solver_mod._check_loss_minimizer(X, y, target, (r, h))
        want = solver_mod._check_loss_minimizer(X, y, target)
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(got - want)) <= 1e-10 * scale


def test_a_far_pilot_falls_back_to_the_full_lp(monkeypatch):
    rng = np.random.default_rng(8)
    X = np.column_stack([np.ones(200), rng.standard_normal((200, 2))])
    y = X @ [1.0, 2.0, -1.0] + rng.standard_normal(200)
    r, h = pilot(X, y, 0.5)
    far = y - X @ [1.0, -20.0, 20.0]  # ranks unrelated to the fit's
    banded = []

    def recorded(*args):
        banded.append(original(*args))
        return banded[-1]

    original = solver_mod._banded_minimizer
    monkeypatch.setattr(solver_mod, "_banded_minimizer", recorded)
    for target in (0.5 - h, 0.5 + h):
        want = solver_mod._check_loss_minimizer(X, y, target)
        assert np.array_equal(solver_mod._check_loss_minimizer(X, y, target, (r, h)), want)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = solver_mod._check_loss_minimizer(X, y, target, (far, h))
        assert np.array_equal(got, want)
    # the near pilot is certified on its band; the far one falls back
    assert [b is None for b in banded] == [False, True, False, True]


def labour_pain_panel(rng, m=83):
    """A panel shaped like self-reported labour pain: two groups, 1 to 6
    occasions with dropout 0.2 after each, a random intercept, and y
    rounded to a grid of 5 on [0, 100], so that most responses tie."""
    lengths = np.minimum(1 + rng.geometric(0.2, m) - 1, 6)
    lengths = np.maximum(lengths, 1)
    treat = np.repeat((np.arange(m) < m // 2).astype(float), lengths)
    time = np.concatenate([np.arange(n, dtype=float) for n in lengths])
    u = np.repeat(15.0 * rng.standard_normal(m), lengths)
    y = 30.0 + 12.0 * time - 7.0 * treat * time + u + 15.0 * rng.standard_normal(time.size)
    y = np.clip(5.0 * np.round(y / 5.0), 0.0, 100.0)
    X = np.column_stack([np.ones(time.size), treat, time, treat * time])
    return LongitudinalDataset(X, y, lengths, range(m))


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("tau", [0.25, 0.5, 0.75])
def test_every_lp_of_a_tied_panel_reaches_the_highs_optimum(seed, tau, monkeypatch):
    ds = labour_pain_panel(np.random.default_rng(seed))
    assert np.unique(ds.y).size <= 21
    lps, exact = [], solver_mod._check_loss_minimizer

    def recorded(X, y, level, pilot=None):
        lps.append((level, exact(X, y, level, pilot)))
        return lps[-1][1]

    monkeypatch.setattr(solver_mod, "_check_loss_minimizer", recorded)
    fit_many(ds, tau, ["WI", "PQR", "AQR"])
    assert len(lps) == 3  # tau, then tau - h and tau + h for the weights
    for level, beta in lps:
        optimum = -linprog(-ds.y, A_eq=ds.X.T, b_eq=np.zeros(ds.p), bounds=(level - 1, level),
                           method="highs").fun
        assert check_objective(ds.X, ds.y, beta, level) == pytest.approx(optimum, rel=1e-9)
