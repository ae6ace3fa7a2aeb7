"""In-memory span tracing installed from outside the wqreg package.

The tracer replaces public names with timing wrappers in the namespaces
where the program looks them up (``wqreg.solver.smoothed_score`` rather
than ``wqreg.model.smoothed_score``, since the solver imported the name),
records one span per call with a link to the enclosing span, and puts the
originals back when the traced block ends. Nothing under ``src/`` changes.
"""

from __future__ import annotations

import importlib
import json
import math
import statistics
from contextlib import contextmanager
from time import perf_counter

# (owner, attribute, layer name). The owner is a module, or a module plus a
# class for methods. A name is wrapped in every namespace it is called from.
TARGETS = (
    ("wqreg.simulation", "run_study", "simulation.run_study"),
    ("wqreg.simulation", "summarize", "simulation.summarize"),
    ("wqreg.simulation", "generate_dataset", "simulation.generate_dataset"),
    ("wqreg.simulation", "fit_many", "solver.fit_many"),
    ("wqreg.solver", "fit_many", "solver.fit_many"),
    ("wqreg.solver", "smoothed_estimating_function", "solver.smoothed_estimating_function"),
    ("wqreg.solver", "smoothed_jacobian", "solver.smoothed_jacobian"),
    ("wqreg.solver", "score_covariance", "solver.score_covariance"),
    ("wqreg.solver", "check_objective", "solver.check_objective"),
    ("wqreg.solver", "smoothed_score", "model.smoothed_score"),
    ("wqreg.solver", "smoothed_score_density", "model.smoothed_score_density"),
    ("wqreg.correlation:WorkingCovariance", "solve_vectors",
     "correlation.WorkingCovariance.solve_vectors"),
    ("wqreg.correlation:WorkingCovariance", "solve_blocks",
     "correlation.WorkingCovariance.solve_blocks"),
    ("wqreg.solver", "estimate_lag_correlations", "correlation.estimate_lag_correlations"),
    ("wqreg.solver", "assemble_working_covariance", "correlation.assemble_working_covariance"),
    ("wqreg.solver", "estimate_sparsity_hk", "sparsity.estimate_sparsity_hk"),
    ("wqreg.cli", "main", "cli.main"),
    ("wqreg.cli", "fit", "cli.fit"),
)

FIT_MANY = "solver.fit_many"

# Function layers reported by the traced run as calls, busy_s and self_s
# per operation. wi_fit, hk_aux and weighted are timed as separate public
# fit() calls on the replication workload, not by wrappers.
LAYERS = (
    "simulation.generate_dataset",
    "simulation.run_study",
    "simulation.summarize",
    "solver.fit_many",
    "solver.wi_fit",
    "solver.hk_aux",
    "solver.weighted",
    "solver.smoothed_estimating_function",
    "solver.smoothed_jacobian",
    "solver.score_covariance",
    "solver.check_objective",
    "model.smoothed_score",
    "model.smoothed_score_density",
    "correlation.WorkingCovariance.solve_vectors",
    "correlation.WorkingCovariance.solve_blocks",
    "correlation.estimate_lag_correlations",
    "correlation.assemble_working_covariance",
    "sparsity.estimate_sparsity_hk",
    "cli.main",
    "cli.fit",
)
PROBED = ("solver.wi_fit", "solver.hk_aux", "solver.weighted")
STUDY_ONLY = "only study-parallel runs a study"
DERIVED = {  # name: (unit, reason when the workload leaves it unmeasured)
    "simulation.run_study.speedup": ("ratio", STUDY_ONLY),
    "simulation.summarize.coverage_min": ("ratio", STUDY_ONLY),
    "simulation.summarize.se_sd_min": ("ratio", STUDY_ONLY),
    "simulation.summarize.eff_min": ("ratio", STUDY_ONLY),
    "solver.iterations.WI": ("count", "fit_many returned no WI fit"),
    "solver.iterations.PQR": ("count", "fit_many returned no PQR fit"),
    "solver.iterations.AQR": ("count", "fit_many returned no AQR fit"),
    "sparsity.hk_success_ratio": ("ratio", "no weighted fit_many call"),
    "fail_frac": ("ratio", None),
    "nonconverged_frac": ("ratio", None),
    "trace.overhead_s": ("s/op", None),
    "trace.overhead_frac": ("ratio", None),
}


def _owner(spec: str):
    module, _, cls = spec.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Spans kept in parallel lists; one tracer per traced phase.

    ``op`` is the index of the benchmark operation that caused a span, so
    spans of one operation share it. ``fits`` collects (method, iterations)
    of every FitResult that passes through ``fit_many``, and
    ``weighted_calls`` counts fit_many calls that asked for PQR or AQR.
    """

    def __init__(self, names=None):
        self.layers = {n for _, _, n in TARGETS} if names is None else set(names)
        self.name, self.start, self.end, self.parent, self.op = [], [], [], [], []
        self.ops = 0
        self.fits = []
        self.weighted_calls = 0
        self.missing = {}
        self._stack = []

    def _wrap(self, layer, fn):
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(layer)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op.append(self.ops)
            self.end.append(math.nan)
            self._stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self._stack.pop()
            if layer == FIT_MANY:
                self._record_fits(args, kwargs, result)
            return result

        return traced

    def _record_fits(self, args, kwargs, results):
        methods = args[2] if len(args) > 2 else kwargs["methods"]
        if any(str(m).upper() != "WI" for m in methods):
            self.weighted_calls += 1
        for method, res in results.items():
            self.fits.append((method, int(res.iterations)))

    @contextmanager
    def operation(self):
        """Trace one benchmark operation with the wrappers installed."""
        saved = []
        for spec, attr, layer in TARGETS:
            if layer not in self.layers:
                continue
            owner = _owner(spec)
            original = getattr(owner, attr, None)
            if original is None:
                self.missing[layer] = f"{spec.replace(':', '.')}.{attr} not found"
                continue
            saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(layer, original))
        try:
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            self.ops += 1

    def layer_totals(self):
        """Per layer: (calls, busy seconds, self seconds) summed over spans.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly because calls run on one thread.
        """
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        totals = {}
        for i, layer in enumerate(self.name):
            calls, busy, own = totals.get(layer, (0, 0.0, 0.0))
            totals[layer] = (calls + 1, busy + dur[i], own + dur[i] - child[i])
        return totals

    def dump(self, path, **extra):
        """Write every span, columnar, with the layer names interned."""
        names = sorted(set(self.name))
        index = {n: k for k, n in enumerate(names)}
        doc = {
            "layers": names,
            "layer": [index[n] for n in self.name],
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "op": self.op,
            **extra,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def ok(times):
    """The times of the operations that succeeded."""
    return [t for t in times if t is not None]


def per_layer(tracers, probed, plain, traced, extra, fractions):
    """Per-operation layer metrics, then the derived ones, and the names
    the workload leaves unmeasured with the reason."""
    measured = dict(probed)
    missing, hk_calls = {}, 0
    for tracer in tracers:
        missing.update(tracer.missing)
        totals = tracer.layer_totals()
        hk_calls += totals.get("sparsity.estimate_sparsity_hk", (0,))[0]
        for layer, (calls, busy, own) in totals.items():
            measured[layer] = (calls / tracer.ops, busy / tracer.ops, own / tracer.ops)
    metrics, absent = {}, {}
    for layer in LAYERS:
        if layer not in measured:
            if layer in missing:
                absent[layer] = missing[layer]
            elif layer in PROBED:
                absent[layer] = "timed by separate fit() calls on the replication workload only"
            else:
                absent[layer] = "not called by this workload"
        calls, busy, own = measured.get(layer, (0.0, 0.0, 0.0))
        metrics[f"{layer}.calls"] = (calls, "count/op")
        metrics[f"{layer}.busy_s"] = (busy, "s/op")
        metrics[f"{layer}.self_s"] = (own, "s/op")

    fits = [f for t in tracers for f in t.fits]
    for method in ("WI", "PQR", "AQR"):
        its = [n for m, n in fits if m == method]
        if its:
            extra[f"solver.iterations.{method}"] = statistics.fmean(its)
    weighted = sum(t.weighted_calls for t in tracers)
    if weighted:
        extra["sparsity.hk_success_ratio"] = hk_calls / weighted
    extra["fail_frac"], extra["nonconverged_frac"] = fractions
    base = statistics.median(ok(plain))
    extra["trace.overhead_s"] = statistics.median(ok(traced)) - base
    extra["trace.overhead_frac"] = extra["trace.overhead_s"] / base
    for name, (unit, reason) in DERIVED.items():
        if name not in extra:
            absent[name] = reason
        metrics[name] = (extra.get(name, 0.0), unit)
    return metrics, absent
