"""Manifest-aware shard prefetch: bulk loads, coherence, telemetry."""

import pickle

from repro.library import PulseLibrary


def _name(i: int) -> str:
    return f"{i:040x}-{i:016x}.pulse"


def _seeded_library(tmp_path, entries: int = 5) -> PulseLibrary:
    writer = PulseLibrary(tmp_path, shards=16)
    for i in range(entries):
        writer.put(_name(i), b"payload-%d" % i)
    return writer


class TestPrefetch:
    def test_first_touch_bulk_loads_the_shard(self, tmp_path):
        _seeded_library(tmp_path)
        library = PulseLibrary(tmp_path, prefetch=True)
        assert library.get(_name(0)) == b"payload-0"
        stats = library.stats()
        # All five entries share the '0' prefix shard: one bulk load serves
        # the whole shard, and the triggering get already hits memory.
        assert stats["prefetches"] == 1
        assert stats["prefetch_hits"] == 1
        assert stats["prefetched_entries"] == 5
        for i in range(5):
            assert library.get(_name(i)) == b"payload-%d" % i
        assert library.stats()["prefetch_hits"] == 6
        assert library.stats()["prefetches"] == 1  # still one shard touch

    def test_disabled_by_default(self, tmp_path):
        _seeded_library(tmp_path)
        library = PulseLibrary(tmp_path)
        library.get(_name(0))
        stats = library.stats()
        assert stats["prefetch_enabled"] is False
        assert stats["prefetches"] == 0
        assert stats["prefetch_hits"] == 0

    def test_config_knob_enables_prefetch(self, tmp_path):
        from repro.service import ServiceConfig

        options = ServiceConfig(prefetch=True).library_options()
        library = PulseLibrary(tmp_path, **options)
        assert library.prefetch_enabled is True

    def test_miss_in_prefetched_shard_still_misses(self, tmp_path):
        _seeded_library(tmp_path)
        library = PulseLibrary(tmp_path, prefetch=True)
        assert library.get(_name(0x999)) is None

    def test_put_keeps_prefetched_shard_coherent(self, tmp_path):
        _seeded_library(tmp_path)
        library = PulseLibrary(tmp_path, prefetch=True)
        library.get(_name(0))  # prefetches the shard
        library.put(_name(0), b"updated")
        assert library.get(_name(0)) == b"updated"
        library.put(_name(0x77), b"brand-new")
        assert library.get(_name(0x77)) == b"brand-new"

    def test_delete_evicts_from_prefetch_layer(self, tmp_path):
        _seeded_library(tmp_path)
        library = PulseLibrary(tmp_path, prefetch=True)
        library.get(_name(1))
        assert library.delete(_name(1))
        assert library.get(_name(1)) is None

    def test_gc_eviction_evicts_from_prefetch_layer(self, tmp_path):
        library = PulseLibrary(tmp_path, shards=16, prefetch=True)
        for i in range(4):
            library.put(_name(i), b"x" * 1024)
        library.get(_name(3))  # prefetch the shard (and refresh its stamp)
        report = library.gc(budget_mb=1024 / (1024 * 1024))
        assert report.evicted == 3
        for name in report.evicted_names:
            assert library.get(name) is None

    def test_lru_stamps_still_recorded_for_prefetch_hits(self, tmp_path):
        import time

        library = PulseLibrary(tmp_path, shards=16, prefetch=True)
        for i in range(3):
            library.put(_name(i), b"x" * 1024)
            time.sleep(0.005)
        library.get(_name(0))  # oldest entry becomes most recently used
        report = library.gc(budget_mb=1024 / (1024 * 1024))
        assert report.evicted == 2
        assert library.get(_name(0)) is not None

    def test_buffer_is_byte_bounded_with_disk_fallback(self, tmp_path):
        library = PulseLibrary(tmp_path, shards=16, prefetch=True)
        library._prefetch_budget_bytes = 3 * 1024
        for i in range(6):
            library.put(_name(i), b"x" * 1024)
        library.get(_name(0))  # bulk load: only ~3 KiB may stay resident
        stats = library.stats()
        assert stats["prefetched_bytes"] <= 3 * 1024
        assert 0 < stats["prefetched_entries"] <= 3
        # Payloads dropped from the buffer still read through from disk.
        for i in range(6):
            assert library.get(_name(i)) == b"x" * 1024

    def test_library_budget_caps_the_buffer(self, tmp_path):
        budget_mb = 2 * 1024 / (1024 * 1024)
        library = PulseLibrary(
            tmp_path, shards=16, budget_mb=budget_mb, prefetch=True
        )
        assert library._prefetch_budget_bytes == 2 * 1024

    def test_pickle_drops_the_buffer_but_keeps_the_flag(self, tmp_path):
        _seeded_library(tmp_path)
        library = PulseLibrary(tmp_path, prefetch=True)
        library.get(_name(0))
        clone = pickle.loads(pickle.dumps(library))
        assert clone.prefetch_enabled is True
        assert clone.stats()["prefetched_entries"] == 0
        assert clone.get(_name(2)) == b"payload-2"  # re-prefetches on demand


class TestEmptyStats:
    def test_empty_stats_mirrors_live_stats_schema(self, tmp_path):
        """The zeroed snapshot for never-created directories must keep the
        exact key set of a live library's stats(), or the CLI's empty and
        populated reports drift apart."""
        library = PulseLibrary(tmp_path, shards=16)
        live = {**library.stats(), **library.sweep()}
        empty = PulseLibrary.empty_stats(tmp_path / "elsewhere")
        assert set(empty) == set(live)
        assert empty["entries"] == 0
        assert not (tmp_path / "elsewhere").exists()


class TestPersistentCachePassthrough:
    def test_cache_exposes_prefetch_counters(self, tmp_path):
        from repro.core import PersistentPulseCache

        cache = PersistentPulseCache(tmp_path, prefetch=True)
        stats = cache.stats()
        assert stats["library"]["prefetch_enabled"] is True
        assert stats["library"]["prefetches"] == 0
