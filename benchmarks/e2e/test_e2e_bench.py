"""Smoke tests of the repository benchmark in ``--smoke`` mode.

    python -m pytest -q benchmarks/e2e/test_e2e_bench.py

Each test runs ``run.py`` as a user would (a subprocess from the
repository root), with about ten requests per workload.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = json.loads((HERE / "layers.json").read_text())
WORKLOADS = {workload["name"] for workload in BENCHMARK["workloads"]}


def run_bench(tmp_path: Path, *args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "e2e" / "run.py"), "--smoke",
         "--results-dir", str(tmp_path / "results"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=900,
    )


def json_lines(stdout: str) -> list:
    return [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]


def assert_metrics(metrics: dict, declared: list) -> None:
    assert set(metrics) == {metric["name"] for metric in declared}
    for metric in declared:
        entry = metrics[metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float)), metric["name"]


def test_every_end_to_end_metric_is_printed_with_its_unit(tmp_path):
    proc = run_bench(tmp_path, "--workload", "all", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    lines = json_lines(proc.stdout)
    per_workload = {line["workload"]: line["metrics"] for line in lines if "workload" in line}
    assert set(per_workload) == WORKLOADS
    for metrics in per_workload.values():
        assert_metrics(metrics, BENCHMARK["end_to_end"])
    final = lines[-1]
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True and final["failed"] == 0
    assert final["attempted"] >= 10 * len(WORKLOADS)


def test_trace_yields_every_per_layer_metric(tmp_path):
    proc = run_bench(tmp_path, "--workload", "all", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    per_workload = {
        line["workload"]: line["metrics"] for line in json_lines(proc.stdout) if "workload" in line
    }
    assert set(per_workload) == WORKLOADS
    for name, metrics in per_workload.items():
        assert_metrics(metrics, BENCHMARK["per_layer"])
        spans = (tmp_path / "results" / f"trace-{name}.jsonl").read_text().splitlines()
        assert spans and {"name", "start", "end", "parent", "request"} <= set(json.loads(spans[0]))


def test_corrupted_expected_file_fails_the_run(tmp_path):
    expected = tmp_path / "expected"
    shutil.copytree(HERE / "expected", expected)
    path = expected / "strict_stream-seed0.json"
    reference = json.loads(path.read_text())
    reference["requests"][3]["sha256"] = "0" * 64
    path.write_text(json.dumps(reference))
    proc = run_bench(
        tmp_path, "--workload", "strict_stream", "--seed", "0", "--expected-dir", str(expected)
    )
    assert proc.returncode != 0
    final = json_lines(proc.stdout)[-1]
    assert final["correct"] is False and final["failed"] == 1


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    skip = shutil.ignore_patterns("results", ".work", "__pycache__")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e", ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench(tmp_path, "--workload", "strict_stream", cwd=tmp_path)
    assert proc.returncode != 0
    assert json_lines(proc.stdout) == []


def test_layer_table_covers_the_benchmark_and_the_tracer():
    spec = importlib.util.spec_from_file_location("e2e_tracing", HERE / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert set(LAYERS["metrics"]) == {metric["name"] for metric in BENCHMARK["per_layer"]}
    wrapped = {
        tracing.entry_point_id(module, attribute)
        for _, module, attribute, _ in tracing.ENTRY_POINTS
    }
    assert set(LAYERS["entry_points"]) == wrapped
    exercised = [metric["exercised_by"] for metric in LAYERS["metrics"].values()]
    for workloads in exercised + list(LAYERS["entry_points"].values()):
        assert set(workloads) <= WORKLOADS
