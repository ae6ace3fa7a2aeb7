"""The benchmark's workloads: inputs made from the seed, one operation, the
checks of its output, and the traced variant of the loop.

Each workload is a closed loop with one caller: the next operation starts
when the previous one has returned. Operations walk through a set of
distinct inputs made in set-up, so one run averages over many inputs and
runs with different seeds agree. Import this module only after wqreg has
been imported, so that the numpy and scipy import counts as set-up.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import statistics
import sys
import traceback
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

import numpy as np
from scipy.optimize import linprog

from tracing import Tracer, ok

REFERENCE = Path(__file__).resolve().parent / "reference.json"
# relative to the checkout root, where run.py runs, so that a CLI report,
# which names its input file, reads the same in every checkout
OUT = Path(".bench_out")

LP_REL_TOL = 1e-8  # the WI check loss may exceed the exact LP optimum by this share
REF_SE = 0.25  # estimates and SEs within a quarter SE of the pinned reference
STUDY_WORKERS = 2


class Stats:
    """Operation outcomes of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.fits = 0
        self.nonconverged = 0

    def attempt(self, run, check):
        """Time run(); check its output outside the timed span.

        Returns (wall time, output); the time is None when the operation
        raised or failed a check.
        """
        self.attempted += 1
        start = perf_counter()
        try:
            out = run()
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None, None
        elapsed = perf_counter() - start
        problems, fits, nonconverged = check(out)
        self.fits += fits
        self.nonconverged += nonconverged
        if problems:
            self.failed += 1
            for p in problems:
                print(f"check failed: {p}", file=sys.stderr)
            return None, out
        return elapsed, out

    def done(self, deadline):
        """Stop at the deadline, or as soon as nothing has succeeded."""
        return perf_counter() >= deadline or self.failed == self.attempted

    def fractions(self):
        """(failed / attempted operations, non-converged / attempted fits)."""
        return self.failed / self.attempted, self.nonconverged / max(self.fits, 1)


def loop(stats, deadline, step):
    """Call step(0), step(1), ... until the deadline."""
    for i in itertools.count():
        step(i)
        if stats.done(deadline):
            return


def measure(workload, stats, seconds):
    """Untraced closed loop: wall times of the operations that passed their
    checks."""
    times = []

    def step(i):
        elapsed, _ = stats.attempt(lambda: workload.run(i), lambda o: workload.check(i, o))
        if elapsed is not None:
            times.append(elapsed)

    loop(stats, perf_counter() + seconds, step)
    return times


def load_reference(workload, seed, tiny):
    if tiny or not REFERENCE.is_file():
        return None
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def fit_problems(label, converged, beta, se, ref):
    """Checks of one fit. A converged fit has finite estimates and SEs and,
    where a pinned reference fit converged too, lies within REF_SE
    reference SEs of it."""
    if not converged:
        return []
    if not (np.all(np.isfinite(beta)) and np.all(np.isfinite(se))):
        return [f"{label}: converged with non-finite estimate or SE"]
    if ref and ref["converged"]:
        ref_beta, ref_se = np.asarray(ref["beta"]), np.asarray(ref["se"])
        tol = REF_SE * ref_se
        if np.any(np.abs(beta - ref_beta) > tol) or np.any(np.abs(se - ref_se) > tol):
            return [f"{label}: estimates {beta} / SE {se} off the reference {ref_beta} / {ref_se}"]
    return []


def lp_check_loss(X, y, tau):
    """Exact minimum of the check loss, from the dual of the Koenker-Bassett
    LP: max y'd subject to X'd = 0 and tau - 1 <= d <= tau (HiGHS)."""
    res = linprog(-y, A_eq=X.T, b_eq=np.zeros(X.shape[1]), bounds=(tau - 1.0, tau), method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return -float(res.fun)


class Replication:
    """fit_many(data, tau, [WI, PQR, AQR]) on desk-scale simulated panels.

    The WI fit and the two HK auxiliary WI fits at tau +/- h are most of a
    call, so a faster WI solve shows here; data generation, the process
    pool and the CLI do no timed work. Operation i fits dataset i of 36
    (12 replications, taus cycled), so a run of 30 s sees each about three
    times and runs on different seeds time nearly the same mix.
    """

    name = "replication"
    unit = "fits"
    items_per_op = 1
    display_names = {"p50": "fit_p50_s", "p90": "fit_p90_s", "rate": "fits_per_s"}
    TAUS = (0.25, 0.5, 0.95)
    METHODS = ("WI", "PQR", "AQR")

    def __init__(self, wq, seed, tiny):
        self.wq = wq
        self.config = wq.simulation.SimConfig(
            m=40 if tiny else 200, n=4, rho=0.9, error_case="normal",
            taus=self.TAUS, master_seed=seed,
        )
        self.replications = 1 if tiny else 12
        self.reference = load_reference(self.name, seed, tiny)
        self.inputs = []
        self.lp_objective = []

    def setup(self):
        gen = self.wq.simulation.generate_dataset
        self.inputs = [
            (gen(self.config, r, tau), tau)
            for r in range(self.replications)
            for tau in self.config.taus
        ]

    def prepare_checks(self):
        self.lp_objective = [lp_check_loss(ds.X, ds.y, tau) for ds, tau in self.inputs]

    def run(self, i):
        ds, tau = self.inputs[i % len(self.inputs)]
        return self.wq.solver.fit_many(ds, tau, self.METHODS)

    def check(self, i, fits):
        k = i % len(self.inputs)
        ds, tau = self.inputs[k]
        problems = []
        for method, res in fits.items():
            ref = self.reference and self.reference[k][method]
            problems += fit_problems(f"dataset {k} tau={tau} {method}", res.converged,
                                     res.beta, res.std_errors, ref)
        wi = fits["WI"]
        if wi.converged:
            u = ds.y - ds.X @ wi.beta
            obj = float(np.sum(np.where(u < 0.0, (tau - 1.0) * u, tau * u)))
            best = self.lp_objective[k]
            if obj > best + LP_REL_TOL * max(abs(best), 1.0):
                problems.append(f"dataset {k} tau={tau} WI: check loss {obj!r} above the LP optimum {best!r}")
        return problems, len(fits), sum(not r.converged for r in fits.values())

    def reference_record(self):
        record = []
        for k in range(len(self.inputs)):
            fits = self.run(k)
            record.append({
                m: {"beta": r.beta.tolist(), "se": r.std_errors.tolist(), "converged": bool(r.converged)}
                for m, r in fits.items()
            })
        return record

    def traced(self, stats, tracer, deadline):
        """Per dataset: an untraced call, a traced call, then the WI fit and
        the HK auxiliary fits as separate public fit() calls."""
        fit, bandwidth = self.wq.solver.fit, self.wq.sparsity.hall_sheather_bandwidth
        plain, traced, wi, hk = [], [], [], []

        def step(i):
            check = lambda out: self.check(i, out)
            plain.append(stats.attempt(lambda: self.run(i), check)[0])
            with tracer.operation():
                traced.append(stats.attempt(lambda: self.run(i), check)[0])
            ds, tau = self.inputs[i % len(self.inputs)]
            h = bandwidth(tau, ds.n_obs)
            start = perf_counter()
            fit(ds, tau, "WI")
            mid = perf_counter()
            fit(ds, tau - h, "WI")
            fit(ds, tau + h, "WI")
            wi.append(mid - start)
            hk.append(perf_counter() - mid)

        loop(stats, deadline, step)
        probed = {}
        if ok(plain):
            wi_s, hk_s = statistics.fmean(wi), statistics.fmean(hk)
            rest = statistics.fmean(ok(plain)) - wi_s - hk_s
            probed = {
                "solver.wi_fit": (1.0, wi_s, wi_s),
                "solver.hk_aux": (2.0, hk_s, hk_s),
                "solver.weighted": (len(self.METHODS) - 1.0, rest, rest),
            }
        return [tracer], probed, plain, traced, {}


class CliPanel:
    """``wqreg fit`` in-process on unbalanced dropout panels.

    600 subjects with 2..12 occasions (11 occasion groups, ~4,200 rows),
    AQR at three taus: per-group Cholesky solves and the U/G/V kernels
    carry a larger share than on the balanced 4-occasion panels, and this
    is the only workload that parses CSV and writes a report. Operation i
    runs on panel i of 12, each drawn with its own seed.
    """

    name = "cli-panel"
    unit = "reports"
    items_per_op = 1
    display_names = {"p50": "cli_fit_p50_s"}
    TAUS = (0.25, 0.5, 0.75)
    BETA = (1.0, 0.5, 0.3, -0.2)  # intercept, treat, time, treat:time
    RHO = 0.5  # AR(1) correlation of the standard normal errors

    def __init__(self, wq, seed, tiny):
        self.wq = wq
        self.seed = seed
        self.subjects = 150 if tiny else 600
        self.panels = 2 if tiny else 12
        # one directory for every seed: the report names its input path
        self.dir = OUT / ("cli-panel-tiny" if tiny else "cli-panel")
        self.reference = load_reference(self.name, seed, tiny)
        self.first_report = {}

    def _argv(self, k):
        return [
            "fit", "--data", str(self.dir / f"panel{k}.csv"), "--response", "y",
            "--id", "subject", "--covariates", "treat,time", "--interaction", "treat:time",
            "--method", "aqr", "--tau", ",".join(f"{t:g}" for t in self.TAUS),
            "--out", str(self.dir / f"report{k}.csv"),
        ]

    def setup(self):
        self.dir.mkdir(parents=True, exist_ok=True)
        b0, b1, b2, b3 = self.BETA
        for k in range(self.panels):
            rng = np.random.default_rng([self.seed, k])
            lines = ["subject,treat,time,y"]
            for i in range(self.subjects):
                n = int(rng.integers(2, 13))
                treat = float(rng.random() < 0.5)
                z = rng.standard_normal(n)
                eps = z[0]
                for t in range(n):
                    if t:
                        eps = self.RHO * eps + math.sqrt(1.0 - self.RHO**2) * z[t]
                    y = b0 + b1 * treat + (b2 + b3 * treat) * t + eps
                    lines.append(f"s{i},{treat:g},{t},{float(y)!r}")
            (self.dir / f"panel{k}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    def prepare_checks(self):
        """One untimed invocation, so that every run compares two reports."""
        self.first_report[0] = self.run(0)

    def run(self, i):
        k = i % self.panels
        with open(os.devnull, "w", encoding="utf-8") as sink, redirect_stdout(sink):
            code = self.wq.cli.main(self._argv(k))
        if code != 0:
            raise RuntimeError(f"wqreg fit exited with code {code}")
        return (self.dir / f"report{k}.csv").read_bytes()

    def _parse(self, k):
        meta, _, rows = self.wq.cli.parse_report(str(self.dir / f"report{k}.csv"))
        fits = {}
        for t in self.TAUS:
            fits[f"{t:g}"] = {
                "beta": [r[3] for r in rows if r[0] == t],
                "se": [r[4] for r in rows if r[0] == t],
                "converged": "converged=yes" in meta[f"fit tau={t:g}"],
            }
        return fits

    def check(self, i, report):
        k = i % self.panels
        problems = []
        if report != self.first_report.setdefault(k, report):
            problems.append(f"panel {k}: report bytes differ from the first report")
        ref = self.reference and self.reference[k]["fits"]
        fits = self._parse(k)
        for t in self.TAUS:
            f = fits[f"{t:g}"]
            problems += fit_problems(f"panel {k} tau={t:g}", f["converged"], np.array(f["beta"]),
                                     np.array(f["se"]), ref and ref[f"{t:g}"])
        return problems, len(fits), sum(not f["converged"] for f in fits.values())

    def reference_record(self):
        return [
            {"sha256": hashlib.sha256(self.run(k)).hexdigest(), "fits": self._parse(k)}
            for k in range(self.panels)
        ]

    def reference_note(self):
        """Whether the reports match the pinned hashes; informational, since
        a legitimate change may move an estimate in its sixth digit."""
        if self.reference is None:
            return None
        same = [
            hashlib.sha256(b).hexdigest() == self.reference[k]["sha256"]
            for k, b in self.first_report.items()
        ]
        return f"reports matching the pinned sha256: {sum(same)} of {len(same)}"

    def traced(self, stats, tracer, deadline):
        """Per panel: an untraced and a traced invocation."""
        plain, traced = [], []

        def step(i):
            check = lambda out: self.check(i, out)
            plain.append(stats.attempt(lambda: self.run(i), check)[0])
            with tracer.operation():
                traced.append(stats.attempt(lambda: self.run(i), check)[0])

        loop(stats, deadline, step)
        return [tracer], {}, plain, traced, {}


class StudyParallel:
    """run_study with 2 workers on chi-square panels: the Monte Carlo path.

    Covers chi-square data generation (per-subject ppf) and the process
    pool. Eight replications make two chunks of the pool's chunk size 4,
    so each worker gets one. The summary must equal that of a serial run.
    """

    name = "study-parallel"
    unit = "replications"
    display_names = {"p50": "study_s", "rate": "replications_per_s"}

    def __init__(self, wq, seed, tiny):
        self.wq = wq
        self.seed = seed
        self.subjects = 40 if tiny else 200
        self.items_per_op = 4 if tiny else 8  # replications per study
        self.config = None
        self.serial_rows = None

    def setup(self):
        self.config = self.wq.simulation.SimConfig(
            error_case="chisq", m=self.subjects, n=4, rho=0.9, taus=(0.5,),
            replications=self.items_per_op, master_seed=self.seed,
        )

    def prepare_checks(self):
        self.serial_rows = self.run(0, workers=1).rows

    def run(self, i, workers=STUDY_WORKERS):
        return self.wq.simulation.run_study(self.config, workers=workers)

    def check(self, i, report):
        problems = []
        if report.rows != self.serial_rows:
            problems.append("summary rows differ from the workers=1 result")
        # n_fail counts a cell's non-converged fits; cells repeat per coefficient
        cells = {(r.tau, r.method): r.n_fail for r in report.rows}
        return problems, len(cells) * self.config.replications, sum(cells.values())

    def reference_record(self):
        return None  # the workers=1 run made before timing is the reference

    def traced(self, stats, tracer, deadline):
        """workers=2 with only run_study and summarize traced in the parent,
        then workers=1 untraced and traced: the serial pass gives the inner
        layers and the serial time for the speed-up."""
        outer = Tracer(["simulation.run_study", "simulation.summarize"])
        inner = Tracer(tracer.layers - outer.layers)
        check = lambda out: self.check(0, out)
        pooled, plain, traced = [], [], []
        last = None

        def step(i):
            nonlocal last
            with outer.operation():
                elapsed, out = stats.attempt(lambda: self.run(i), check)
            pooled.append(elapsed)
            if out is not None:
                last = out
            plain.append(stats.attempt(lambda: self.run(i, workers=1), check)[0])
            with inner.operation():
                traced.append(stats.attempt(lambda: self.run(i, workers=1), check)[0])

        loop(stats, deadline, step)
        extra = summary_margins(last) if last else {}
        if ok(plain) and ok(pooled):
            serial, parallel = statistics.median(ok(plain)), statistics.median(ok(pooled))
            extra["simulation.run_study.speedup"] = serial / parallel
        return [outer, inner], {}, plain, traced, extra


def summary_margins(report):
    """Smallest coverage, SE/SD ratio and weighted-method EFF of a study."""
    rows = report.rows
    coverage = [r.coverage for r in rows if r.coverage is not None]
    se_sd = [r.mean_se / r.sd for r in rows if r.sd and r.mean_se is not None]
    eff = [r.eff for r in rows if r.method != "WI" and r.eff is not None]
    return {
        "simulation.summarize.coverage_min": min(coverage, default=0.0),
        "simulation.summarize.se_sd_min": min(se_sd, default=0.0),
        "simulation.summarize.eff_min": min(eff, default=0.0),
    }


WORKLOADS = {w.name: w for w in (Replication, CliPanel, StudyParallel)}
