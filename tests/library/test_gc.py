"""Garbage collection: LRU eviction, budgets, reconciliation, concurrency."""

import threading
import time

from repro.library import PulseLibrary, load_manifest


def _name(i: int) -> str:
    return f"{i:040x}-{i:016x}.pulse"


KIB = 1024


class TestEviction:
    def test_no_budget_means_no_eviction(self, tmp_path):
        library = PulseLibrary(tmp_path, shards=16)
        for i in range(4):
            library.put(_name(i), b"x" * KIB)
        report = library.gc()
        assert report.evicted == 0
        assert library.count() == 4
        assert report.budget_bytes is None

    def test_evicts_down_to_budget(self, tmp_path):
        library = PulseLibrary(tmp_path, shards=16)
        for i in range(8):
            library.put(_name(i), b"x" * KIB)
        report = library.gc(budget_mb=4 * KIB / (1024 * 1024))
        assert report.entries_before == 8
        assert report.evicted == 4
        assert report.bytes_after <= 4 * KIB
        assert library.count() == 4

    def test_least_recently_used_evicted_first(self, tmp_path):
        library = PulseLibrary(tmp_path, shards=16)
        for i in range(4):
            library.put(_name(i), b"x" * KIB)
            time.sleep(0.005)
        # Touch the two oldest: they become the most recently used.
        library.get(_name(0))
        library.get(_name(1))
        report = library.gc(budget_mb=2 * KIB / (1024 * 1024))
        assert report.evicted == 2
        survivors = set(library.names())
        assert _name(0) in survivors and _name(1) in survivors
        assert _name(2) not in survivors and _name(3) not in survivors

    def test_eviction_counter_accumulates_in_manifests(self, tmp_path):
        library = PulseLibrary(tmp_path, shards=16)
        for i in range(6):
            library.put(_name(i), b"x" * KIB)
        library.gc(budget_mb=3 * KIB / (1024 * 1024))
        assert library.sweep()["evictions"] == 3
        library.gc(budget_mb=1 * KIB / (1024 * 1024))
        assert library.sweep()["evictions"] == 5


class TestReconciliation:
    def test_gc_adopts_orphans_and_drops_ghosts(self, tmp_path):
        library = PulseLibrary(tmp_path, shards=16)
        library.put(_name(1), b"indexed")
        shard = library.shard_dir(_name(1))
        # Orphan: file on disk, not in the index (crash between write+index).
        orphan = shard / _name(0x10001)
        assert orphan.parent == shard  # same first hex char by construction
        orphan.write_bytes(b"orphan")
        # Ghost: indexed, file deleted behind the library's back.
        library.put(_name(0x10002), b"ghost")
        library.path_for(_name(0x10002)).unlink()

        report = library.gc()
        assert report.orphans_adopted >= 1
        assert report.ghosts_dropped >= 1
        entries = load_manifest(shard)["entries"]
        assert _name(0x10001) in entries
        assert _name(0x10002) not in entries

    def test_gc_sweeps_stale_tmp_files(self, tmp_path, monkeypatch):
        library = PulseLibrary(tmp_path, shards=16)
        library.put(_name(2), b"x")
        shard = library.shard_dir(_name(2))
        stale = shard / ".deadbeef.pulse.123.abc.tmp"
        stale.write_bytes(b"crash debris")
        old = time.time() - 3600
        import os

        os.utime(stale, (old, old))
        fresh = shard / ".cafef00d.pulse.456.def.tmp"
        fresh.write_bytes(b"in flight")
        report = library.gc()
        assert report.stale_tmp_removed == 1
        assert not stale.exists()
        assert fresh.exists()  # recent temp files are presumed in flight


class TestDamagedManifests:
    def test_gc_survives_missing_and_null_last_used_stamps(self, tmp_path):
        """Regression: a reconciled/legacy-migrated record with a missing or
        ``None`` LRU stamp used to raise KeyError/TypeError mid-gc and abort
        eviction.  Damaged stamps heal from the file mtime, and the pass
        still enforces the budget."""
        import json

        library = PulseLibrary(tmp_path, shards=16)
        for i in range(4):
            library.put(_name(i), b"x" * KIB)
            time.sleep(0.005)
        # Hand-damage the manifests: drop one stamp, null another, and turn
        # a third record into non-dict junk.
        damaged = 0
        for shard in library.shard_dirs():
            path = shard / "manifest.json"
            manifest = json.loads(path.read_text())
            for name, record in manifest["entries"].items():
                if damaged == 0:
                    del record["last_used"]
                elif damaged == 1:
                    record["last_used"] = None
                elif damaged == 2:
                    manifest["entries"][name] = "junk"
                damaged += 1
            path.write_text(json.dumps(manifest))
        assert damaged >= 3

        report = library.gc(budget_mb=2 * KIB / (1024 * 1024))
        assert report.evicted == 2
        assert library.count() == 2
        # The healed index parses and carries numeric stamps everywhere.
        for shard in library.shard_dirs():
            for record in load_manifest(shard)["entries"].values():
                assert isinstance(record["last_used"], float)
                assert isinstance(record["created"], float)

    def test_put_over_damaged_record_does_not_crash(self, tmp_path):
        """Overwriting an entry whose manifest record is junk (or lacks a
        'created' stamp) must not raise out of put() — the write path gets
        the same tolerance as reconciliation."""
        import json

        library = PulseLibrary(tmp_path, shards=16)
        library.put(_name(0), b"original")
        library.put(_name(1), b"original")
        shard = library.shard_dir(_name(0))
        path = shard / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["entries"][_name(0)] = "junk"
        del manifest["entries"][_name(1)]["created"]
        path.write_text(json.dumps(manifest))

        library.put(_name(0), b"overwritten")
        library.put(_name(1), b"overwritten")
        assert library.get(_name(0)) == b"overwritten"
        record = load_manifest(shard)["entries"][_name(0)]
        assert isinstance(record["created"], float)

    def test_stats_tolerates_damaged_manifest(self, tmp_path):
        import json

        library = PulseLibrary(tmp_path, shards=16)
        library.put(_name(0), b"x" * KIB)
        shard = library.shard_dir(_name(0))
        manifest = json.loads((shard / "manifest.json").read_text())
        for record in manifest["entries"].values():
            record["last_used"] = None
        (shard / "manifest.json").write_text(json.dumps(manifest))
        assert library.sweep()["entries"] == 1


class TestConcurrency:
    def test_concurrent_gc_vs_put_under_lock(self, tmp_path):
        """Writers and collectors racing on one directory stay consistent.

        The invariants: no exceptions escape, manifests always parse, and
        after a final reconcile the index exactly matches the data files.
        """
        library = PulseLibrary(tmp_path, shards=16)
        errors = []
        stop = threading.Event()

        def writer(base):
            try:
                writer_library = PulseLibrary(tmp_path)  # own handle, as a
                for i in range(30):  # separate process would hold
                    writer_library.put(_name(base + i), b"x" * KIB)
                    if i % 7 == 0:
                        writer_library.get(_name(base + i))
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        def collector():
            try:
                collector_library = PulseLibrary(tmp_path)
                while not stop.is_set():
                    collector_library.gc()
                    time.sleep(0.001)
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(base,))
            for base in (0x100000, 0x200000, 0x300000)
        ]
        gc_thread = threading.Thread(target=collector)
        gc_thread.start()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stop.set()
        gc_thread.join()
        assert not errors

        # One clean reconcile-and-evict pass.
        final = library.gc(budget_mb=8 * KIB / (1024 * 1024))
        assert final.entries_after == library.count()
        indexed = set()
        for shard in library.shard_dirs():
            indexed.update(load_manifest(shard)["entries"])
        assert indexed == set(library.names())

    def test_concurrent_eviction_pressure_respects_budget(self, tmp_path):
        """gc under a tight budget while puts keep landing never corrupts."""
        budget_mb = 4 * KIB / (1024 * 1024)
        library = PulseLibrary(tmp_path, shards=16)
        errors = []

        def writer():
            try:
                handle = PulseLibrary(tmp_path)
                for i in range(60):
                    handle.put(_name(0x500000 + i), b"x" * KIB)
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        writer_thread = threading.Thread(target=writer)
        writer_thread.start()
        for _ in range(10):
            library.gc(budget_mb)
        writer_thread.join()
        assert not errors
        report = library.gc(budget_mb)
        assert report.bytes_after <= budget_mb * 1024 * 1024
        # Every surviving file is readable.
        for name in library.names():
            assert library.get(name) is not None
