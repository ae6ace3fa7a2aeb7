"""The benchmark's traced layers still name live code.

The benchmark under ``perfbench/`` times each layer by replacing a module
attribute with a wrapper. A refactor that renames or stops calling such an
attribute silently drops that layer's metric, so this test resolves every
target the tracer lists and checks that a tiny study and a tiny ``wqreg
fit`` call each live layer at least once.
"""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np

import wqreg.cli as cli
import wqreg.simulation as simulation
from wqreg import SimConfig

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracing", Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
)
_tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_tracing)
TARGETS = _tracing.TARGETS

# layers whose code left the package; the benchmark still lists them
RETIRED = {
    "solver.smoothed_estimating_function",
    "solver.smoothed_jacobian",
    "solver.score_covariance",
    "solver.check_objective",
    "correlation.WorkingCovariance.solve_vectors",
    "correlation.WorkingCovariance.solve_blocks",
}


def _owner(spec):
    module, _, cls = spec.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


def test_every_live_benchmark_layer_resolves_and_is_called(tmp_path, monkeypatch, capsys):
    calls = Counter()

    def counted(layer, fn):
        def wrapper(*args, **kwargs):
            calls[layer] += 1
            return fn(*args, **kwargs)

        return wrapper

    live = set()
    for spec, attr, layer in TARGETS:
        if layer in RETIRED:
            continue
        owner = _owner(spec)
        original = getattr(owner, attr, None)
        assert original is not None, f"{spec}.{attr} ({layer}) not found"
        monkeypatch.setattr(owner, attr, counted(layer, original))
        live.add(layer)
    assert len(live) == 11

    # through module attributes, as the benchmark calls them
    config = SimConfig(m=30, n=3, rho=0.5, taus=(0.5,), replications=1, master_seed=1)
    simulation.run_study(config)
    ds = simulation.generate_dataset(config, 0)
    path = tmp_path / "panel.csv"
    ids = np.repeat(ds.ids, ds.lengths)
    rows = [f"{i},{float(y)!r},{float(x[1])!r},{float(x[2])!r}" for i, y, x in zip(ids, ds.y, ds.X)]
    path.write_text("\n".join(["id,y,trt,x", *rows]) + "\n")
    code = cli.main([
        "fit", "--data", str(path), "--response", "y", "--id", "id",
        "--covariates", "trt,x", "--method", "aqr", "--out", str(tmp_path / "r.csv"),
    ])
    capsys.readouterr()
    assert code == 0
    assert {layer for layer in live if calls[layer] == 0} == set()
