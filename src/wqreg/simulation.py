"""Monte Carlo harness: AR(1)-correlated error cases, replication engine,
and the bias / SD / SE / EFF / coverage summaries."""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat
from typing import Optional

import numpy as np
from scipy.special import gammaincinv, ndtr, ndtri, stdtrit

from .exceptions import DataError, SolverError
from .model import LongitudinalDataset, check_tau
from .solver import METHODS, _method_list, fit, fit_many

__all__ = [
    "SimConfig",
    "ReplicationRecord",
    "SummaryRow",
    "SimStudyReport",
    "ar1_covariance",
    "generate_dataset",
    "run_study",
    "summarize",
]

ERROR_CASES = ("normal", "chisq", "t")
BETA_TRUE = (-0.5, 0.5, 1.0)  # intercept, Bernoulli and normal covariate coefficients
_Z95 = float(ndtri(0.975))


@dataclass
class SimConfig:
    """Design of one study: error case, dependence, size, and seeds."""

    m: int = 500
    n: int = 4
    rho: float = 0.5
    error_case: str = "normal"
    taus: tuple = (0.25, 0.5, 0.95)
    methods: tuple = ("WI", "PQR", "AQR")
    replications: int = 1000
    master_seed: int = 20240901

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("m must be at least 2")
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if self.replications < 1:
            raise ValueError("replications must be at least 1")
        if not 0.0 <= self.rho < 1.0:
            raise ValueError("rho must lie in [0, 1)")
        case = str(self.error_case).lower()
        if case not in ERROR_CASES:
            raise ValueError(f"unknown error case {self.error_case!r}")
        self.error_case = case
        self.taus = tuple(check_tau(t) for t in self.taus)
        if not self.taus:
            raise ValueError("taus must be non-empty")
        if len(set(self.taus)) < len(self.taus):
            # each tau's fits would be pooled into one summary cell
            raise ValueError(f"taus must not repeat a level, got {self.taus}")
        self.methods = _method_list(self.methods)
        self.master_seed = int(self.master_seed)


@dataclass
class ReplicationRecord:
    """One (tau, method) fit from one replication."""

    tau: float
    method: str
    replication: int
    beta: np.ndarray
    std_errors: np.ndarray
    converged: bool


@dataclass
class SummaryRow:
    """Aggregated metrics for one (tau, method, coefficient) cell.

    Metrics that are undefined for the cell (single replication, or no
    converged fits) are None.
    """

    tau: float
    method: str
    coefficient: str
    bias: Optional[float]
    sd: Optional[float]
    mean_se: Optional[float]
    eff: Optional[float]
    coverage: Optional[float]
    n_fail: int
    n_used: int


@dataclass
class SimStudyReport:
    """All summary rows of a study, in (tau, method, coefficient) order."""

    rows: list
    replications: int
    taus: tuple = ()
    methods: tuple = ()
    coefficients: tuple = ()

    def row(self, tau: float, method: str, coefficient) -> SummaryRow:
        if isinstance(coefficient, int):
            coefficient = self.coefficients[coefficient]
        for r in self.rows:
            if r.tau == tau and r.method == str(method).upper() and r.coefficient == coefficient:
                return r
        raise KeyError((tau, method, coefficient))


def ar1_covariance(rho: float, n: int) -> np.ndarray:
    """AR(1) correlation matrix with entries rho^|j-k|."""
    if not 0.0 <= rho < 1.0:
        raise ValueError("rho must lie in [0, 1)")
    if n < 1:
        raise ValueError("n must be at least 1")
    lags = np.arange(n)
    return (rho ** lags.astype(float))[np.abs(np.subtract.outer(lags, lags))]


def _gaussian_draws(case: str, L: np.ndarray, rng: np.random.Generator):
    """One subject's error draws in stream order: the AR(1) Gaussian vector
    L z, then, for the t case only, one chi-square(3) W (1 otherwise)."""
    z = L @ rng.standard_normal(L.shape[0])
    w = rng.chisquare(3) if case == "t" else 1.0
    return z, w


def _marginal_errors(case: str, z: np.ndarray, w, tau: float) -> np.ndarray:
    """Map AR(1) Gaussian draws to errors whose tau-quantile is zero.

    Elementwise in z, so one call transforms one subject's (n,) vector or a
    whole dataset's (m, n) stack with w of shape (m, 1), bit for bit alike.
    The quantile functions are the scipy.special calls behind scipy.stats:
    the chi-square(2) quantile is 2 P^-1(1, u), the t(3) one stdtrit(3, u).
    """
    if case == "normal":
        return z - ndtri(tau)
    if case == "chisq":
        u = np.clip(ndtr(z), 1e-16, 1.0 - 1e-16)
        return 2.0 * gammaincinv(1.0, u) - 2.0 * gammaincinv(1.0, tau)
    return z / np.sqrt(w / 3.0) - stdtrit(3, tau)


def generate_dataset(
    config: SimConfig, replication: int, tau: Optional[float] = None
) -> LongitudinalDataset:
    """Build the dataset of one replication.

    Errors are centered at the analysis quantile, so each tau gets its own
    response; tau defaults to the first configured level. Covariates and
    the underlying Gaussian draws are shared across taus because every
    subject stream is keyed only by (master_seed, replication, subject).

    Each subject's stream gives, in order, ``random(n)`` for the Bernoulli
    covariate, ``standard_normal(n)`` for the normal covariate, and then the
    error draws: ``standard_normal(n)`` and, for the t case,
    ``chisquare(3)``. The covariates fill an (m, n, 3) design in place, the
    AR(1) Cholesky factor is built once per dataset and the marginal
    transform runs once on the stacked (m, n) draws, so the errors equal
    those of the one-subject reference ``sample_errors`` in the test
    suite's ``oracle`` module replayed on each stream.
    """
    tau = check_tau(config.taus[0] if tau is None else tau)
    m, n = config.m, config.n
    beta = np.asarray(BETA_TRUE)
    L = np.linalg.cholesky(ar1_covariance(config.rho, n))
    X = np.ones((m, n, 3))
    z = np.empty((m, n))
    w = np.ones((m, 1))
    for i in range(m):
        rng = np.random.default_rng(
            np.random.SeedSequence([config.master_seed, replication, i])
        )
        X[i, :, 1] = rng.random(n) < 0.5
        X[i, :, 2] = rng.standard_normal(n)
        z[i], w[i] = _gaussian_draws(config.error_case, L, rng)
    eps = _marginal_errors(config.error_case, z, w, tau)
    return LongitudinalDataset(
        X.reshape(m * n, 3), (X @ beta + eps).ravel(), np.full(m, n), [str(i) for i in range(m)]
    )


def _fit_method_order(config: SimConfig):
    # WI is always fitted: it anchors EFF
    wanted = set(config.methods) | {"WI"}
    return [m for m in METHODS if m in wanted]


_FIT_ERRORS = (SolverError, DataError, np.linalg.LinAlgError)


def _fit_or_none(dataset, tau, method):
    try:
        return fit(dataset, tau, method)
    except _FIT_ERRORS:
        return None


def _replicate(config: SimConfig, replication: int):
    methods = _fit_method_order(config)
    p = len(BETA_TRUE)
    records = []
    for tau in config.taus:
        dataset = generate_dataset(config, replication, tau)
        try:
            fits = fit_many(dataset, tau, methods)
        except _FIT_ERRORS:
            # refit each method alone, so that one that raises keeps the others' fits
            fits = {m: _fit_or_none(dataset, tau, m) for m in methods}
        for method in methods:
            f = fits[method]
            if f is None:
                beta, se, ok = np.full(p, np.nan), np.full(p, np.nan), False
            else:
                beta, se, ok = f.beta, f.std_errors, f.converged
            records.append(ReplicationRecord(tau, method, replication, beta, se, ok))
    return records


def run_study(config: SimConfig, workers: int = 1) -> SimStudyReport:
    """Run all replications and aggregate.

    Replications are independent with deterministic per-replication seeds;
    records are reduced in replication order, so the report is identical
    for any worker count.
    """
    replications = range(config.replications)
    if workers > 1:
        # one replication per task: a slow-converging replication can cost
        # several others, and fixed chunks would leave a worker idle
        with ProcessPoolExecutor(max_workers=workers) as pool:
            batches = list(pool.map(_replicate, repeat(config), replications))
    else:
        batches = [_replicate(config, r) for r in replications]
    records = [rec for batch in batches for rec in batch]
    return summarize(records, np.asarray(BETA_TRUE))


def _cell_metrics(recs, beta_true, k):
    ok = [
        r
        for r in recs
        if r.converged
        and np.all(np.isfinite(r.beta))
        and np.all(np.isfinite(r.std_errors))
    ]
    n_fail = len(recs) - len(ok)
    if not ok:
        return None, n_fail, 0
    b = np.array([r.beta[k] for r in ok])
    se = np.array([r.std_errors[k] for r in ok])
    R = len(ok)
    bias = float(np.mean(b)) - float(beta_true[k])
    sd = float(np.std(b, ddof=1)) if R >= 2 else None
    # population variance (R-1)/R * sd^2, zero when R == 1
    var_pop = float(np.var(b)) if R >= 2 else 0.0
    mse = bias * bias + var_pop
    mean_se = float(np.mean(se))
    coverage = float(np.mean(np.abs(b - beta_true[k]) <= _Z95 * se))
    return {"bias": bias, "sd": sd, "mean_se": mean_se, "mse": mse, "coverage": coverage}, n_fail, R


def summarize(records, beta_true) -> SimStudyReport:
    """Aggregate replication records into per-cell metrics.

    bias = mean estimate minus truth; SD = sample standard deviation; EFF =
    MSE(WI)/MSE(method) with MSE = bias^2 + SD^2 (R-1)/R; coverage = share
    of 95% Wald intervals containing the truth. Non-converged replications
    are excluded and counted. WI's EFF is 1 by definition.
    """
    beta_true = np.asarray(beta_true, dtype=float)
    p = beta_true.size
    coefficients = tuple(f"beta{k}" for k in range(p))
    taus, methods = [], []
    for r in records:
        if r.tau not in taus:
            taus.append(r.tau)
        if r.method not in methods:
            methods.append(r.method)
    replications = len({r.replication for r in records})
    rows = []
    for tau in taus:
        wi_recs = [r for r in records if r.tau == tau and r.method == "WI"]
        wi_mse = {}
        for k in range(p):
            metrics, _, _ = _cell_metrics(wi_recs, beta_true, k)
            if metrics is not None:
                wi_mse[k] = metrics["mse"]
        for method in methods:
            recs = [r for r in records if r.tau == tau and r.method == method]
            for k in range(p):
                metrics, n_fail, n_used = _cell_metrics(recs, beta_true, k)
                if metrics is None:
                    rows.append(
                        SummaryRow(tau, method, coefficients[k], None, None, None, None, None, n_fail, 0)
                    )
                    continue
                if method == "WI":
                    eff = 1.0
                elif k in wi_mse and metrics["mse"] > 0.0:
                    eff = wi_mse[k] / metrics["mse"]
                else:
                    eff = None
                rows.append(
                    SummaryRow(
                        tau,
                        method,
                        coefficients[k],
                        metrics["bias"],
                        metrics["sd"],
                        metrics["mean_se"],
                        eff,
                        metrics["coverage"],
                        n_fail,
                        n_used,
                    )
                )
    return SimStudyReport(
        rows=rows,
        replications=replications,
        taus=tuple(taus),
        methods=tuple(methods),
        coefficients=coefficients,
    )
