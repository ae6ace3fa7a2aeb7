"""Smoke test of the benchmark at tiny scale (a few seconds per run).

    python3 -m pytest perfbench/test_smoke.py

Every workload runs for one second untraced and traced. The last stdout
line must name every metric of BENCHMARK.json with its unit, and the lines
before it the per-workload figures. Outside a checkout the benchmark must
fail without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
PRINTED = {
    "replication": {"fit_p50_s", "fit_p90_s", "fits_per_s"},
    "cli-panel": {"cli_fit_p50_s"},
    "study-parallel": {"study_s", "replications_per_s"},
}
COMMON = {"fail_frac", "nonconverged_frac", "peak_rss_mb", "setup_s"}


def bench(workload, trace, cwd=ROOT):
    cmd = [sys.executable, str(cwd / SPEC["command"][1]), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return lines, result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_with_units(workload):
    lines, result = result_of(bench(workload, 0))
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    printed = {line.split()[1] for line in lines if line.startswith("metric: ")}
    assert PRINTED[workload] | COMMON <= printed
    assert any(line.startswith("env: ") for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_printed_with_units(workload):
    lines, result = result_of(bench(workload, 1))
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for line in lines:
        if line.startswith("absent: "):
            name = line.split()[1].rstrip(":")
            assert result["metrics"].get(f"{name}.calls", result["metrics"].get(name))["value"] == 0


def test_fails_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
