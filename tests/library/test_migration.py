"""Legacy flat-directory migration: every entry preserved, bit-identically."""

import pickle

import numpy as np

from repro.core.cache import (
    CACHE_SCHEMA_VERSION,
    CacheEntry,
    PersistentPulseCache,
    _key_filename,
)
from repro.library import PulseLibrary, load_manifest
from repro.pulse.device import GmonDevice
from repro.pulse.hamiltonian import build_control_set
from repro.pulse.schedule import PulseSchedule
from repro.transpile.topology import line_topology


def _entry(duration_ns: float = 0.5) -> CacheEntry:
    schedule = PulseSchedule(qubits=(0,), dt_ns=0.1, controls=np.ones((2, 5)))
    return CacheEntry(schedule, duration_ns, 0.999, True, 100)


def _key(cache, dim: int = 2, dt: float = 0.2):
    device = GmonDevice(line_topology(max(2, dim.bit_length())))
    control_set = build_control_set(device, [0])
    return cache.key(np.eye(dim), control_set, dt, 0.99)


def _populate_flat(directory, count: int) -> dict:
    """A legacy (pre-library) flat cache directory with ``count`` entries."""
    rng = np.random.default_rng(3)
    payloads = {}
    for i in range(count):
        name = f"{rng.bytes(20).hex()}-{i:016x}.pulse"
        blob = pickle.dumps(
            {"schema_version": CACHE_SCHEMA_VERSION, "entry": _entry(float(i))}
        )
        (directory / name).write_bytes(blob)
        payloads[name] = blob
    return payloads


class TestLibraryMigration:
    def test_flat_entries_move_into_shards_bit_identically(self, tmp_path):
        payloads = _populate_flat(tmp_path, 12)
        library = PulseLibrary(tmp_path, shards=16)
        assert library.migrated_entries == 12
        # Nothing left flat, every payload identical through the library.
        assert not list(tmp_path.glob("*.pulse"))
        for name, blob in payloads.items():
            assert library.get(name) == blob
            assert library.path_for(name).parent.name == name[0]

    def test_migration_builds_manifest_entries(self, tmp_path):
        payloads = _populate_flat(tmp_path, 6)
        library = PulseLibrary(tmp_path, shards=16)
        indexed = set()
        for shard in library.shard_dirs():
            indexed.update(load_manifest(shard)["entries"])
        assert indexed == set(payloads)

    def test_migration_runs_once(self, tmp_path):
        _populate_flat(tmp_path, 4)
        first = PulseLibrary(tmp_path, shards=16)
        second = PulseLibrary(tmp_path)
        assert first.migrated_entries == 4
        assert second.migrated_entries == 0
        assert second.count() == 4

    def test_unmigrated_flat_entry_still_served(self, tmp_path):
        """A flat file appearing *after* init (old-layout writer sharing the
        directory) is readable before any migration pass adopts it."""
        library = PulseLibrary(tmp_path, shards=16)
        (tmp_path / "feed.pulse").write_bytes(b"late")
        assert library.get("feed.pulse") == b"late"
        # The next gc adopts it into its shard.
        library.gc()
        assert (tmp_path / "f" / "feed.pulse").is_file()
        assert not (tmp_path / "feed.pulse").exists()


class TestCacheMigration:
    def test_legacy_cache_directory_round_trips(self, tmp_path):
        """A directory written by the pre-library PersistentPulseCache keeps
        serving every entry after the sharded library adopts it."""
        reference = PersistentPulseCache(tmp_path / "reference")
        keys = [_key(reference, dim, dt) for dim in (2, 4) for dt in (0.1, 0.2)]
        flat = tmp_path / "legacy"
        flat.mkdir()
        for i, key in enumerate(keys):
            blob = pickle.dumps(
                {"schema_version": CACHE_SCHEMA_VERSION, "entry": _entry(float(i))}
            )
            (flat / _key_filename(key)).write_bytes(blob)

        cache = PersistentPulseCache(flat)
        assert cache.library.migrated_entries == len(keys)
        for i, key in enumerate(keys):
            entry = cache.get(key)
            assert entry is not None
            assert entry.duration_ns == float(i)
        assert cache.disk_hits == len(keys)
        assert cache.stats()["library"]["migrated_entries"] == len(keys)

    def test_migrated_schema_mismatch_still_graceful(self, tmp_path):
        """v1 (bare pickle) files survive migration and still invalidate as
        schema mismatches, not disk errors."""
        warm = PersistentPulseCache(tmp_path / "seed")
        key = _key(warm)
        flat = tmp_path / "legacy"
        flat.mkdir()
        (flat / _key_filename(key)).write_bytes(pickle.dumps(_entry()))

        cache = PersistentPulseCache(flat)
        assert cache.library.migrated_entries == 1
        assert cache.get(key) is None
        assert cache.schema_mismatches == 1
        assert cache.disk_errors == 0
        # Recompute-and-overwrite heals in place, inside the shard.
        cache.put(key, _entry(0.7))
        cold = PersistentPulseCache(flat)
        assert cold.get(key).duration_ns == 0.7
        assert cold.schema_mismatches == 0

    def test_migrated_corrupt_file_counts_disk_error(self, tmp_path):
        warm = PersistentPulseCache(tmp_path / "seed")
        key = _key(warm)
        flat = tmp_path / "legacy"
        flat.mkdir()
        (flat / _key_filename(key)).write_bytes(b"truncated garbage")
        cache = PersistentPulseCache(flat)
        assert cache.get(key) is None
        assert cache.disk_errors == 1
        assert cache.schema_mismatches == 0

    def test_migration_preserves_persisted_stats(self, tmp_path):
        payloads = _populate_flat(tmp_path, 9)
        cache = PersistentPulseCache(tmp_path)
        swept = cache.library.sweep()
        assert swept["entries"] == 9
        assert swept["total_bytes"] == sum(len(b) for b in payloads.values())
