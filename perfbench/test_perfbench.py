"""Tests of the benchmark itself: ``python3 -m pytest -q perfbench``."""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_counts_repeat_between_traced_runs(name, tmp_path):
    counts = []
    for attempt in range(2):
        ops = workloads.build(name, 7, tmp_path / str(attempt))
        t = tracer.Tracer()
        t.install()
        try:
            p = run.run_pass(ops)
        finally:
            t.uninstall()
        metrics = tracer.summarize(t.take(), p.rows)
        counts.append({k: metrics[k] for k in tracer.COUNT_METRICS})
        for layer in workloads.STRESSES[name]:
            assert metrics[f"{layer}.calls"] > 0, layer
    assert counts[0] == counts[1]


def test_uninstall_restores_every_reference():
    import thermwit.checks
    import thermwit.cli

    before = (thermwit.cli.main, dict(thermwit.cli._COMMANDS), thermwit.checks.ALL_CHECKS)
    t = tracer.Tracer()
    t.install()
    try:
        assert thermwit.cli._COMMANDS["dimer"] is not before[1]["dimer"]
        assert thermwit.checks.ALL_CHECKS[0][1] is not before[2][0][1]
    finally:
        t.uninstall()
    assert (thermwit.cli.main, dict(thermwit.cli._COMMANDS), thermwit.checks.ALL_CHECKS) == before


def test_self_time_subtracts_children_in_any_layer():
    spans = [
        ["cli", "main", 0, 100, -1, 0, 0],
        ["thermal", "population", 10, 60, 0, 4, 0],
        ["thermal", "population_profile", 20, 30, 1, 4, 0],
        ["numerics", "hermitian_eigendecompose", 40, 50, 1, 4, 0],
        ["numerics", "bisect", 70, 90, 0, 0, 0],
        ["thermal", "population", 75, 80, 4, 4, 0],
    ]
    m = tracer.summarize(spans, rows=10)
    assert m["cli.self_s"] == pytest.approx(30e-9)
    assert m["thermal.self_s"] == pytest.approx(45e-9)
    assert m["numerics.self_s"] == pytest.approx(25e-9)
    assert m["thermal.levels_summed"] == 8  # nested thermal spans count once
    assert m["crossing.searches"] == 1 and m["crossing.kernel_calls_per_search"] == 1
    assert m["numerics.eigh_calls"] == 1 and m["numerics.eigh_dim3_computed"] == 64


def test_benchmark_json_names_every_emitted_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
