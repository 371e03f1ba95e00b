"""The neighbor index stays current without library-wide sweeps.

Own writes land in the index in place; writes by another cache on the
same directory are found by re-reading only the shards whose manifest
identity moved, at the next freeze or unfrozen lookup.  Per-request calls
(cache counters, frozen lookups) touch no file at all.
"""

import hashlib
import os
import pickle
import sys
import threading
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import repro.library.manifest as manifest_module
import repro.library.neighbors as neighbors_module
import repro.library.store as store_module
from repro.core.cache import CacheEntry, PersistentPulseCache, _key_filename
from repro.library import PulseLibrary, target_metadata
from repro.library.neighbors import NeighborIndex
from repro.linalg import haar_random_unitary

CTX = ("ctx", 0.5, 0.999)


def _unitary(seed: int) -> np.ndarray:
    return haar_random_unitary(4, seed=np.random.default_rng(seed))


def _near(target: np.ndarray, eps: float = 0.01) -> np.ndarray:
    return target @ np.diag(np.exp(1j * np.array([eps, 0.0, 0.0, -eps])))


def _key(i: int) -> tuple:
    return (hashlib.sha256(str(i).encode()).hexdigest(), CTX)


def _key_beside(key: tuple, first: int) -> tuple:
    """The first key from ``first`` on in the same shard as ``key``, so a
    write to it changes a shard the reader has already read."""
    i = first
    while _key(i)[0][0] != key[0][0]:
        i += 1
    return _key(i)


def _entry(duration: float = 1.0) -> CacheEntry:
    return CacheEntry(
        schedule=None, duration_ns=duration, fidelity=0.999, converged=True,
        iterations=3,
    )


def _fill(cache: PersistentPulseCache, count: int, first: int = 0) -> list:
    keys = [_key(i) for i in range(first, first + count)]
    for i, key in enumerate(keys, start=first):
        cache.put(key, _entry(), target=_unitary(i))
    return keys


@contextmanager
def _counting_manifest_loads():
    """Count every manifest read, by the module that made it."""
    calls = {"store": 0, "neighbors": 0}
    patched = []
    for label, module in (("store", store_module), ("neighbors", neighbors_module)):
        for function in ("load_manifest", "read_manifest"):
            original = getattr(module, function, None)
            if original is None:
                continue

            def counted(shard_dir, _original=original, _label=label):
                calls[_label] += 1
                return _original(shard_dir)

            patched.append((module, function, original))
            setattr(module, function, counted)
    try:
        yield calls
    finally:
        for module, function, original in patched:
            setattr(module, function, original)


class TestForeignWrites:
    def test_warm_reader_sees_a_foreign_put(self, tmp_path):
        writer = PersistentPulseCache(tmp_path)
        reader = PersistentPulseCache(tmp_path)
        keys = _fill(writer, 8)
        probe_key = _key(1000)
        target = _unitary(500)
        # The reader builds its index with a lookup that finds nothing.
        assert reader.find_neighbor(probe_key, target, 0.05) is None

        near_key = _key_beside(keys[0], 501)
        writer.put(near_key, _entry(7.0), target=_near(target))

        match = reader.find_neighbor(probe_key, target, 0.05)
        assert match is not None and match.name == _key_filename(near_key)
        assert match.source == "library" and match.entry.duration_ns == 7.0

    def test_warm_reader_sees_a_foreign_put_at_freeze(self, tmp_path):
        writer = PersistentPulseCache(tmp_path)
        reader = PersistentPulseCache(tmp_path)
        keys = _fill(writer, 8)
        probe_key = _key(1000)
        target = _unitary(510)
        assert reader.find_neighbor(probe_key, target, 0.05) is None

        near_key = _key_beside(keys[0], 511)
        writer.put(near_key, _entry(), target=_near(target))
        reader.freeze_neighbors()
        try:
            match = reader.find_neighbor(probe_key, target, 0.05)
        finally:
            reader.thaw_neighbors()
        assert match is not None and match.name == _key_filename(near_key)

    def test_foreign_delete_drops_the_candidate(self, tmp_path):
        writer = PersistentPulseCache(tmp_path)
        reader = PersistentPulseCache(tmp_path)
        target = _unitary(520)
        near_key = _key(521)
        writer.put(near_key, _entry(), target=_near(target))
        assert reader.find_neighbor(_key(1000), target, 0.05) is not None

        assert writer.library.delete(_key_filename(near_key))
        assert reader.find_neighbor(_key(1000), target, 0.05) is None

    def test_foreign_gc_eviction_drops_the_candidate(self, tmp_path):
        writer = PersistentPulseCache(tmp_path)
        reader = PersistentPulseCache(tmp_path)
        target = _unitary(530)
        writer.put(_key(531), _entry(), target=_near(target))
        _fill(writer, 4)
        reader.freeze_neighbors()
        reader.thaw_neighbors()
        assert reader.neighbors.stats()["indexed_entries"] == 5

        report = writer.gc(budget_mb=0)
        assert report.evicted == 5
        assert reader.find_neighbor(_key(1000), target, 1.0) is None
        assert reader.neighbors.stats()["indexed_entries"] == 0


class TestNoSweepPerRequest:
    ENTRIES = 200

    def test_cache_stats_touch_no_file(self, tmp_path, monkeypatch):
        cache = PersistentPulseCache(tmp_path)
        _fill(cache, self.ENTRIES)
        cache.find_neighbor(_key(1000), _unitary(9), 0.25)

        touched = []

        def refuse(*args, **kwargs):
            touched.append(args)
            raise OSError("per-request stats touched the disk")

        with monkeypatch.context() as patch:
            for module in (store_module, neighbors_module, manifest_module):
                for function in ("load_manifest", "read_manifest"):
                    patch.setattr(module, function, refuse, raising=False)
            patch.setattr(Path, "glob", refuse)
            patch.setattr(Path, "iterdir", refuse)
            patch.setattr(os, "scandir", refuse)
            patch.setattr(os, "stat", refuse)
            try:
                stats = cache.stats()
            except OSError:
                stats = None
        assert touched == []
        assert stats["library"]["puts"] == self.ENTRIES
        assert stats["neighbors"]["indexed_entries"] == self.ENTRIES

    def test_frozen_lookup_after_sibling_puts_loads_no_manifest(self, tmp_path):
        cache = PersistentPulseCache(tmp_path)
        _fill(cache, self.ENTRIES)
        target = _unitary(600)
        cache.freeze_neighbors()
        try:
            # Siblings of the pass land while it is frozen.
            _fill(cache, 4, first=self.ENTRIES)
            with _counting_manifest_loads() as calls:
                cache.find_neighbor(_key(1000), target, 1.0)
        finally:
            cache.thaw_neighbors()
        assert calls == {"store": 0, "neighbors": 0}

    def test_unfrozen_lookup_after_a_foreign_put_reads_one_shard(self, tmp_path):
        reader = PersistentPulseCache(tmp_path)
        _fill(reader, self.ENTRIES)
        target = _unitary(610)
        reader.find_neighbor(_key(1000), target, 1.0)
        before = reader.neighbors.stats()["shard_reads"]

        # Own puts never make the index re-read a shard.
        _fill(reader, 4, first=self.ENTRIES)
        reader.find_neighbor(_key(1000), target, 1.0)
        assert reader.neighbors.stats()["shard_reads"] == before

        writer = PersistentPulseCache(tmp_path)
        writer.put(_key(611), _entry(), target=_near(target, 0.3))
        with _counting_manifest_loads() as calls:
            reader.find_neighbor(_key(1000), target, 0.01)
        assert calls["neighbors"] == 1
        assert reader.neighbors.stats()["shard_reads"] == before + 1


class TestIncrementalIndex:
    def test_own_writes_need_no_rescan(self, tmp_path):
        library = PulseLibrary(tmp_path)
        index = NeighborIndex(library)
        assert index.find_nearest(_unitary(1), CTX, 1.0) is None
        reads = index.stats()["shard_reads"]
        name = _key_filename(_key(1))
        library.put(name, b"x", meta=target_metadata(_unitary(1), CTX))
        hit = index.find_nearest(_near(_unitary(1)), CTX, 0.05)
        assert hit is not None and hit.name == name
        library.delete(name)
        assert index.find_nearest(_near(_unitary(1)), CTX, 1.0) is None
        assert index.stats()["shard_reads"] == reads

    def test_overwrite_moves_the_entry(self, tmp_path):
        library = PulseLibrary(tmp_path)
        index = NeighborIndex(library)
        name = _key_filename(_key(2))
        library.put(name, b"x", meta=target_metadata(_unitary(2), CTX))
        assert index.find_nearest(_unitary(2), CTX, 0.01).name == name
        library.put(name, b"y", meta=target_metadata(_unitary(3), CTX))
        assert index.find_nearest(_unitary(2), CTX, 0.01) is None
        assert index.find_nearest(_unitary(3), CTX, 0.01).name == name
        assert index.stats()["indexed_entries"] == 1

    def test_equal_distances_go_to_the_smallest_name(self, tmp_path):
        library = PulseLibrary(tmp_path, shards=16)
        index = NeighborIndex(library)
        target = _unitary(4)
        meta = target_metadata(target, CTX)
        names = [f"{c}{'0' * 39}-{'0' * 16}.pulse" for c in "f3a8"]
        for name in names:  # own writes, applied in arrival order
            library.put(name, b"x", meta=meta)
        assert index.find_nearest(target, CTX, 1.0).name == min(names)
        rebuilt = NeighborIndex(PulseLibrary(tmp_path))
        assert rebuilt.find_nearest(target, CTX, 1.0).name == min(names)

    def test_clone_builds_its_scan_once_even_frozen(self, tmp_path):
        library = PulseLibrary(tmp_path)
        index = NeighborIndex(library)
        name = _key_filename(_key(5))
        library.put(name, b"x", meta=target_metadata(_unitary(5), CTX))
        index.freeze()
        clone = pickle.loads(pickle.dumps(index))
        assert clone.stats()["indexed_entries"] == 0
        assert clone.find_nearest(_unitary(5), CTX, 0.01).name == name
        reads = clone.stats()["shard_reads"]
        assert reads >= 1
        clone.find_nearest(_unitary(5), CTX, 0.01)
        assert clone.stats()["shard_reads"] == reads

    @pytest.mark.parametrize("shards", [16, 256])
    def test_matches_a_full_rebuild_after_mixed_traffic(self, tmp_path, shards):
        """Own and foreign puts, overwrites and deletes, interleaved.

        The index checks after each foreign write: a manifest identity can
        only repeat after two unobserved rewrites within one timestamp tick
        (see DESIGN.md, "Per-request cost").
        """
        library = PulseLibrary(tmp_path, shards=shards)
        index = NeighborIndex(library)
        foreign = PulseLibrary(tmp_path)
        rng = np.random.default_rng(0)
        for step in range(60):
            name = _key_filename(_key(int(rng.integers(40))))
            writer = library if step % 3 else foreign
            if rng.random() < 0.2:
                writer.delete(name)
            else:
                seed = int(rng.integers(1000))
                writer.put(name, b"x", meta=target_metadata(_unitary(seed), CTX))
            if writer is foreign:
                index.find_nearest(_unitary(0), CTX, 1.0)
        rebuilt = NeighborIndex(PulseLibrary(tmp_path))
        rebuilt.sync()
        assert index._buckets == rebuilt._buckets

    def test_concurrent_writers_and_lookups_match_a_full_rebuild(self, tmp_path):
        library = PulseLibrary(tmp_path, shards=16)
        index = NeighborIndex(library)
        foreign = PulseLibrary(tmp_path)
        errors = []

        def writer(t):
            try:
                for i in range(30):
                    name = _key_filename(_key(t * 100 + i % 12))
                    meta = target_metadata(_unitary(t * 100 + i), CTX)
                    (foreign if t == 0 else library).put(name, b"x", meta=meta)
                    if i % 5 == 4:
                        library.delete(name)
                    index.find_nearest(_unitary(i), CTX, 1.0)
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(t,)) for t in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        index.sync()
        rebuilt = NeighborIndex(PulseLibrary(tmp_path))
        rebuilt.sync()
        assert index._buckets == rebuilt._buckets

    def test_a_dropped_cache_frees_without_the_cycle_collector(self, tmp_path):
        import gc
        import weakref

        cache = PersistentPulseCache(tmp_path)
        refs = [weakref.ref(cache.library), weakref.ref(cache.neighbors)]
        enabled = gc.isenabled()
        gc.disable()
        try:
            del cache
            assert all(ref() is None for ref in refs)
        finally:
            if enabled:
                gc.enable()
