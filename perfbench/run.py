"""Benchmark of the wqreg package: three closed-loop workloads, one caller.

    python3 perfbench/run.py --workload replication --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout that holds ``src/wqreg``; the package
is imported from that source tree, never from an installed copy. With
``--trace 0`` the last stdout line is the JSON result with the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics from spans
recorded around the package's public functions. Lines before it give the
same figures under their per-workload names, the environment, and any
per-layer metric that the workload does not exercise. Outputs, spans and
the CLI workload's files go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from tracing import Tracer, ok, per_layer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
WORKLOAD_NAMES = ("replication", "cli-panel", "study-parallel")


def peak_rss_mb():
    """Peak resident set of this process plus its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) * 1024 / 1e6


def environment():
    import numpy
    import scipy

    def blas(config):
        try:
            dep = config["Build Dependencies"]["blas"]
            return f"{dep['name']} {dep['version']}"
        except (KeyError, TypeError):
            return "unknown"

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "mp_start_method": multiprocessing.get_context().get_start_method(),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true", help="smoke-test scale")
    parser.add_argument("--write-reference", action="store_true",
                        help="record the pinned reference for this workload and seed, then exit")
    args = parser.parse_args(argv)

    if not (SRC / "wqreg" / "__init__.py").is_file():
        print(f"error: no wqreg source tree at {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    start = perf_counter()
    import wqreg
    import wqreg.cli  # noqa: F401  (wqreg/__init__ does not import the CLI)

    import_s = perf_counter() - start
    from workloads import REFERENCE, WORKLOADS, Stats, measure  # numpy and scipy came with wqreg

    if not Path(wqreg.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported wqreg from {wqreg.__file__}, not {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    workload = WORKLOADS[args.workload](wqreg, args.seed, args.tiny)
    setups = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        workload.setup()
        setups.append(perf_counter() - start)
    setup_s = import_s + statistics.median(setups)

    if args.write_reference:
        record = workload.reference_record()
        if record is None:
            print(f"error: {workload.name} has no pinned reference", file=sys.stderr)
            return 2
        doc = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.is_file() else {}
        doc.setdefault(workload.name, {})[str(args.seed)] = record
        REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        return 0

    workload.prepare_checks()
    env = environment()
    tag = f"{workload.name}{'-tiny' if args.tiny else ''}-seed{args.seed}"
    stats = Stats()
    lines = {}
    if args.trace:
        tracer = Tracer()
        deadline = perf_counter() + args.seconds
        tracers, probed, plain, traced, extra = workload.traced(stats, tracer, deadline)
        if not (ok(plain) and ok(traced)):
            print("error: no operation succeeded both untraced and traced", file=sys.stderr)
            return 1
        metrics, absent = per_layer(tracers, probed, plain, traced, extra, stats.fractions())
        for i, t in enumerate(tracers):
            t.dump(OUT / f"spans-{tag}-{i}.json", env=env)
        for name, reason in absent.items():
            print(f"absent: {name}: {reason}")
    else:
        times = measure(workload, stats, args.seconds)
        items = len(times) * workload.items_per_op
        if not times:
            print("error: no operation succeeded", file=sys.stderr)
            return 1
        fail_frac, nonconverged_frac = stats.fractions()
        metrics = {
            "items_per_s": (items / sum(times), "1/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        names = workload.display_names
        lines[names["p50"]] = (statistics.median(times), "s")
        if "p90" in names and len(times) > 1:
            lines[names["p90"]] = (statistics.quantiles(times, n=10)[-1], "s")
        if "rate" in names:
            lines[names["rate"]] = metrics["items_per_s"]
        lines.update(fail_frac=(fail_frac, "ratio"), nonconverged_frac=(nonconverged_frac, "ratio"),
                     peak_rss_mb=metrics["peak_rss_mb"], setup_s=metrics["setup_s"])
        print(f"samples: {len(times)} operations, {items} {workload.unit}")
        note = getattr(workload, "reference_note", lambda: None)()
        if note:
            print(note)

    for name, (value, unit) in lines.items():
        print(f"metric: {name} = {value:.6g} {unit}")
    print("env: " + json.dumps(env, sort_keys=True))
    result = {
        "correct": stats.failed == 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    path = OUT / f"result-{tag}-trace{args.trace}.json"
    path.write_text(json.dumps({"env": env, "seconds": args.seconds, **result}, indent=1),
                      encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
