"""Persistent pulse-cache contracts: durability, concurrency, telemetry."""

import pickle
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.core.cache import (
    CACHE_SCHEMA_VERSION,
    CacheEntry,
    PersistentPulseCache,
    PulseCache,
)
from repro.pulse.device import GmonDevice
from repro.pulse.hamiltonian import build_control_set
from repro.pulse.schedule import PulseSchedule
from repro.transpile.topology import line_topology

REPO_SRC = Path(__file__).resolve().parents[2] / "src"


def _entry(duration_ns: float = 0.5) -> CacheEntry:
    schedule = PulseSchedule(qubits=(0,), dt_ns=0.1, controls=np.ones((2, 5)))
    return CacheEntry(schedule, duration_ns, 0.999, True, 100)


def _key(cache: PulseCache):
    device = GmonDevice(line_topology(2))
    control_set = build_control_set(device, [0])
    return cache.key(np.eye(2), control_set, 0.2, 0.99)


class TestRoundTrip:
    def test_cold_reload_hits(self, tmp_path):
        warm = PersistentPulseCache(tmp_path)
        key = _key(warm)
        warm.put(key, _entry())
        # A fresh instance over the same directory is exactly what a cold
        # process sees: the lookup must come back from disk.
        cold = PersistentPulseCache(tmp_path)
        loaded = cold.get(key)
        assert loaded is not None
        assert loaded.duration_ns == 0.5
        np.testing.assert_allclose(loaded.schedule.controls, np.ones((2, 5)))
        assert cold.disk_hits == 1 and cold.hits == 1 and cold.misses == 0

    def test_memory_tier_serves_repeat_lookups(self, tmp_path):
        cache = PersistentPulseCache(tmp_path)
        key = _key(cache)
        cache.put(key, _entry())
        cache.get(key)
        cache.get(key)
        assert cache.hits == 2
        assert cache.disk_hits == 0  # both served from memory

    def test_miss_counted(self, tmp_path):
        cache = PersistentPulseCache(tmp_path)
        assert cache.get(_key(cache)) is None
        assert cache.misses == 1

    def test_persisted_inventory(self, tmp_path):
        cache = PersistentPulseCache(tmp_path)
        cache.put(_key(cache), _entry())
        swept = cache.library.sweep()
        assert swept["entries"] == 1
        assert swept["total_bytes"] > 0


class TestRobustness:
    def test_corrupt_file_is_a_miss(self, tmp_path):
        warm = PersistentPulseCache(tmp_path)
        key = _key(warm)
        warm.put(key, _entry())
        payload = next(tmp_path.rglob("*.pulse"))
        payload.write_bytes(b"not a pickle")
        cold = PersistentPulseCache(tmp_path)
        assert cold.get(key) is None
        assert cold.disk_errors == 1 and cold.misses == 1

    def test_foreign_object_is_a_disk_error(self, tmp_path):
        warm = PersistentPulseCache(tmp_path)
        key = _key(warm)
        warm.put(key, _entry())
        payload = next(tmp_path.rglob("*.pulse"))
        payload.write_bytes(pickle.dumps(["definitely", "not", "ours"]))
        cold = PersistentPulseCache(tmp_path)
        assert cold.get(key) is None
        assert cold.disk_errors == 1


class TestSchemaVersioning:
    def test_entries_carry_the_schema_tag(self, tmp_path):
        cache = PersistentPulseCache(tmp_path)
        cache.put(_key(cache), _entry())
        raw = pickle.loads(next(tmp_path.rglob("*.pulse")).read_bytes())
        assert raw["schema_version"] == CACHE_SCHEMA_VERSION
        assert isinstance(raw["entry"], CacheEntry)

    def test_legacy_bare_entry_invalidates_gracefully(self, tmp_path):
        """A v1 file (bare CacheEntry pickle) is a schema miss, not an error."""
        warm = PersistentPulseCache(tmp_path)
        key = _key(warm)
        warm.put(key, _entry())
        payload = next(tmp_path.rglob("*.pulse"))
        payload.write_bytes(pickle.dumps(_entry()))  # pre-versioning format
        cold = PersistentPulseCache(tmp_path)
        assert cold.get(key) is None
        assert cold.schema_mismatches == 1
        assert cold.disk_errors == 0
        assert cold.misses == 1

    def test_future_schema_version_invalidates_gracefully(self, tmp_path):
        warm = PersistentPulseCache(tmp_path)
        key = _key(warm)
        warm.put(key, _entry())
        payload = next(tmp_path.rglob("*.pulse"))
        payload.write_bytes(
            pickle.dumps(
                {"schema_version": CACHE_SCHEMA_VERSION + 1, "entry": _entry()}
            )
        )
        cold = PersistentPulseCache(tmp_path)
        assert cold.get(key) is None
        assert cold.schema_mismatches == 1
        assert cold.disk_errors == 0

    def test_mismatch_is_recomputed_and_overwritten(self, tmp_path):
        """The graceful-invalidate path heals the directory in place."""
        warm = PersistentPulseCache(tmp_path)
        key = _key(warm)
        path = warm._path(key)
        path.parent.mkdir(exist_ok=True)
        path.write_bytes(pickle.dumps(_entry()))  # stale v1 file
        cache = PersistentPulseCache(tmp_path)
        assert cache.get(key) is None  # schema miss → caller recomputes
        cache.put(key, _entry(0.7))  # ... and stores in the current format
        cold = PersistentPulseCache(tmp_path)
        entry = cold.get(key)
        assert entry is not None and entry.duration_ns == 0.7
        assert cold.schema_mismatches == 0

    def test_stats_report_schema_fields(self, tmp_path):
        cache = PersistentPulseCache(tmp_path)
        stats = cache.stats()
        assert stats["schema_version"] == CACHE_SCHEMA_VERSION
        assert stats["schema_mismatches"] == 0

    def test_concurrent_writers_leave_readable_entry(self, tmp_path):
        cache = PersistentPulseCache(tmp_path)
        key = _key(cache)

        def writer(duration):
            cache.put(key, _entry(duration))

        threads = [
            threading.Thread(target=writer, args=(float(i),)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Atomic replace: whatever won, the file must load cleanly.
        cold = PersistentPulseCache(tmp_path)
        assert cold.get(key) is not None
        assert cold.disk_errors == 0
        assert cache.library.sweep()["entries"] == 1
        assert not list(tmp_path.rglob("*.tmp"))

    def test_pickles_without_its_lock(self, tmp_path):
        cache = PersistentPulseCache(tmp_path)
        cache.put(_key(cache), _entry())
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.get(_key(clone)) is not None


class TestTelemetry:
    def test_stats_keys(self, tmp_path):
        cache = PersistentPulseCache(tmp_path)
        key = _key(cache)
        cache.get(key)
        cache.put(key, _entry())
        stats = cache.stats()
        assert stats["backend"] == "disk"
        assert stats["directory"] == str(tmp_path)
        assert stats["hits"] == 0 and stats["misses"] == 1
        assert stats["store_time_s"] > 0
        assert "persisted_entries" not in stats  # counters only, no sweep
        assert cache.stats(sweep=True)["persisted_entries"] == 1

    def test_memory_backend_stats(self):
        cache = PulseCache()
        stats = cache.stats()
        assert stats["backend"] == "memory"
        assert "disk_hits" not in stats

    def test_default_cache_follows_config(self, tmp_path, monkeypatch):
        from repro.core.compiler import BlockPulseCompiler
        from repro.service import CompilationService, ServiceConfig

        # Below the service the default is in memory, whatever the
        # environment; the service's cache follows its config.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        compiler = BlockPulseCompiler(GmonDevice(line_topology(2)))
        assert not isinstance(compiler.cache, PersistentPulseCache)
        with CompilationService(ServiceConfig(cache_dir=str(tmp_path))) as service:
            assert isinstance(service.cache, PersistentPulseCache)
            assert service.cache.directory == tmp_path
        with CompilationService(ServiceConfig()) as service:
            assert not isinstance(service.cache, PersistentPulseCache)
        assert not (tmp_path / "env").exists()


@pytest.mark.slow
class TestColdProcess:
    def test_second_process_compiles_from_cache(self, tmp_path):
        """End to end: a separate interpreter re-uses the persisted pulses."""
        script = f"""
import sys
sys.path.insert(0, {str(REPO_SRC)!r})
from repro.circuits.circuit import QuantumCircuit
from repro.pulse.device import GmonDevice
from repro.pulse.grape.engine import GrapeHyperparameters, GrapeSettings
from repro.service import CompilationService, CompileRequest, ServiceConfig
from repro.transpile.topology import line_topology

circuit = QuantumCircuit(2).h(0).cx(0, 1).rz(0.4, 1)
with CompilationService(
    config=ServiceConfig(executor="serial", cache_dir={str(tmp_path)!r}),
    device=GmonDevice(line_topology(2)),
    settings=GrapeSettings(dt_ns=0.5, target_fidelity=0.95),
    hyperparameters=GrapeHyperparameters(0.05, 0.002, max_iterations=150),
) as service:
    result = service.compile(
        CompileRequest(circuit, strategy="full-grape", max_block_width=2)
    ).compiled
print("ITER", result.runtime_iterations, "HITS", result.cache_hits)
"""
        first = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True
        )
        assert first.returncode == 0, first.stderr
        second = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True
        )
        assert second.returncode == 0, second.stderr
        tokens = second.stdout.split()
        iterations = int(tokens[tokens.index("ITER") + 1])
        hits = int(tokens[tokens.index("HITS") + 1])
        assert iterations == 0, second.stdout
        assert hits >= 1
