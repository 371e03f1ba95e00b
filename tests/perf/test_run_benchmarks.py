"""Smoke test for the benchmark-JSON harness (quick mode)."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[2] / "benchmarks"


@pytest.fixture(scope="module")
def harness():
    spec = importlib.util.spec_from_file_location(
        "run_benchmarks", BENCH_DIR / "run_benchmarks.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("run_benchmarks", module)
    spec.loader.exec_module(module)
    return module


class TestGrapeKernelBench:
    @pytest.fixture(scope="class")
    def outputs(self, harness, tmp_path_factory):
        out = tmp_path_factory.mktemp("bench")
        harness.main(["--quick", "--only", "grape_kernel", "--output-dir", str(out)])
        return out

    @pytest.fixture(scope="class")
    def payload(self, outputs):
        return json.loads((outputs / "BENCH_grape_kernel.json").read_text())

    def test_schema(self, payload):
        assert payload["benchmark"] == "grape_kernel"
        assert payload["quick"] is True
        assert payload["schema_version"] == 1
        assert "host" in payload and payload["host"]["cpu_count"] >= 1

    def test_before_after_entries_present(self, payload):
        names = {entry["name"] for entry in payload["entries"]}
        assert "3q-qutrit-dim27-before" in names
        assert "3q-qutrit-dim27-after" in names
        for entry in payload["entries"]:
            assert entry["per_iteration_ms"] > 0
            assert entry["max_abs_deviation"] <= 1e-10

    def test_dim27_block_is_paper_scale(self, payload):
        dim27 = [e for e in payload["entries"] if e["case"] == "3q-qutrit-dim27"]
        assert all(e["dim"] == 27 for e in dim27)

    def test_trend_row_appended(self, harness, outputs):
        trend = outputs / "BENCH_trend.jsonl"
        rows = [json.loads(line) for line in trend.read_text().splitlines()]
        assert len(rows) == 1
        assert rows[0]["quick"] is True
        assert "grape_kernel" in rows[0]["benches"]
        # A second run appends instead of overwriting.
        harness.main(["--quick", "--only", "grape_kernel", "--output-dir", str(outputs)])
        rows = [json.loads(line) for line in trend.read_text().splitlines()]
        assert len(rows) == 2

    @pytest.mark.slow
    def test_headline_speedup_floor(self, payload):
        """The dim-27 rewrite speedup holds a conservative floor.

        The committed artifact (``benchmarks/results/BENCH_grape_kernel.json``,
        taken on a quiet machine) records the full ≥2× headline number; this
        floor is deliberately loose and marked ``slow`` so the fast CI tier
        never flakes on scheduler noise while a real kernel regression still
        gets caught by the full suite / perf-smoke job.
        """
        assert payload["derived"]["headline_speedup"] >= 1.4


class TestGrapeBatchBench:
    @pytest.fixture(scope="class")
    def payload(self, harness, tmp_path_factory):
        out = tmp_path_factory.mktemp("bench_grape_batch")
        harness.main(["--quick", "--only", "grape_batch", "--output-dir", str(out)])
        return json.loads((out / "BENCH_grape_batch.json").read_text())

    def test_batched_matches_per_block_and_never_loses(self, payload):
        """The bench's own gates enforce ≤1e-10 equivalence and the
        never-slower margin before writing; the smoke re-checks the
        artifact."""
        by_name = {entry["name"]: entry for entry in payload["entries"]}
        for batch in (4, 8, 16):
            per_block = by_name[f"per-block-{batch}"]
            batched = by_name[f"batched-{batch}"]
            assert batched["max_abs_deviation"] <= 1e-10
            assert batched["iterations"] == per_block["iterations"]
            assert batched["wall_s"] <= per_block["wall_s"] * 1.10
            assert payload["derived"][f"speedup_batch_{batch}"] > 0

    def test_headline_tracks_the_8_block_case(self, payload):
        derived = payload["derived"]
        assert derived["headline_speedup"] == derived["speedup_batch_8"]

    def test_scan_sweep_covers_sequential_and_default(self, payload):
        sweep = [e for e in payload["entries"] if e["name"].startswith("scan-")]
        sizes = {e["block_size"] for e in sweep}
        assert 1 in sizes
        assert payload["derived"]["scan_default_block_size"] in sizes
        assert all(e["per_call_ms"] > 0 for e in sweep)


@pytest.mark.slow
class TestPipelineBench:
    def test_auto_never_slower_than_serial(self, harness, tmp_path):
        """The CI gates: the bench raises (writing nothing) if ``auto``
        lost to serial beyond the noise margin, or, having forked a search
        worker on this host, did not beat serial outright; the smoke
        re-checks the artifact."""
        harness.main(["--quick", "--only", "pipeline", "--output-dir", str(tmp_path)])
        payload = json.loads((tmp_path / "BENCH_pipeline.json").read_text())
        assert payload["derived"]["durations_match"] is True
        assert payload["derived"]["blocks_match"] is True
        names = [entry["name"] for entry in payload["entries"]]
        assert names == ["serial", "auto"]
        by_name = {entry["name"]: entry for entry in payload["entries"]}
        serial_wall, auto = by_name["serial"]["wall_s"], by_name["auto"]
        assert auto["wall_s"] <= serial_wall * 1.15
        if auto["search_workers"] > 0:
            assert auto["wall_s"] < serial_wall * 0.9


class TestWarmStartBench:
    @pytest.fixture(scope="class")
    def payload(self, harness, tmp_path_factory):
        out = tmp_path_factory.mktemp("bench_warm_start")
        harness.main(["--quick", "--only", "warm_start", "--output-dir", str(out)])
        return json.loads((out / "BENCH_warm_start.json").read_text())

    def test_three_modes_measured(self, payload):
        names = [entry["name"] for entry in payload["entries"]]
        assert names == ["cold", "neighbor", "kak"]

    def test_neighbor_seeding_never_slower(self, payload):
        """The CI gate: the bench raises (writing nothing) if seeding cost
        iterations or lengthened the pulses; the smoke re-checks the
        artifact."""
        derived = payload["derived"]
        assert derived["neighbor_iterations"] <= derived["cold_iterations"]
        assert derived["duration_ratio_neighbor"] <= 1.0
        assert derived["iteration_reduction_neighbor"] >= 0.0

    def test_every_variant_neighbor_seeded(self, payload):
        by_name = {entry["name"]: entry for entry in payload["entries"]}
        assert payload["derived"]["neighbor_seeds_used"] == (
            by_name["neighbor"]["variants"]
        )

    def test_telemetry_recorded(self, payload):
        telemetry = payload["derived"]["telemetry"]
        assert telemetry["neighbor_seeds"] >= 1
        assert telemetry["lookups"] >= telemetry["neighbor_seeds"]
