"""Smoke test of the benchmark on n = 16 variants of every workload.

    python3 -m pytest benchmarks/test_smoke.py

It checks that every metric BENCHMARK.json names is printed with its
unit, both in the table and in the final JSON line, and that the traced
run's per-layer self times add up to its traced wall time.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace, cwd=HERE.parent):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--n", "16"],
        capture_output=True, text=True, timeout=600, cwd=cwd)


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    table = {}
    for line in lines[:-1]:
        if not line.startswith("#"):
            name, value, unit = line.split()[:3]
            table[name] = (float(value), unit)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    metrics = {k: (v["value"], v["unit"]) for k, v in result["metrics"].items()}
    return table, metrics


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    table, metrics = parse(bench(workload, 0))
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: unit for k, (_, unit) in metrics.items()} == units
    assert all(value > 0 for value, _ in metrics.values())
    units["failed_frac"] = "ratio"
    assert {k: unit for k, (_, unit) in table.items()} == units
    assert table["failed_frac"][0] == 0.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    table, metrics = parse(bench(workload, 1))
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: unit for k, (_, unit) in metrics.items()} == units
    assert {k: unit for k, (_, unit) in table.items()} == units
    values = {k: value for k, (value, _) in metrics.items()}
    layers = sum(values[f"{layer}.self_s"]
                 for layer in ("kernels", "rearrange", "assembly", "solvers",
                               "verify", "cli"))
    wall = values["trace.wall_s"]
    # the spans cover run_scenario; only the root wrapper's own calls lie
    # outside them, so the floor of 1 % is generous
    slack = max(abs(values["trace.overhead_frac"]), 0.01) * wall
    assert abs(layers - wall) <= slack


def test_fails_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
