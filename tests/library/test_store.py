"""PulseLibrary contracts: layout, index, locking, round trips."""

import json
import pickle
import threading

import pytest

from repro.errors import ReproError
from repro.library import (
    LIBRARY_LAYOUT_VERSION,
    FileLock,
    PulseLibrary,
    load_manifest,
)
from repro.library.store import VALID_SHARD_COUNTS


def _name(i: int) -> str:
    # Realistic entry names: 40 hex fingerprint chars + context digest.
    return f"{i:040x}-{i:016x}.pulse"


class TestLayout:
    def test_entries_land_in_prefix_shards(self, tmp_path):
        library = PulseLibrary(tmp_path, shards=16)
        library.put("ab12cd.pulse", b"x")
        assert (tmp_path / "a" / "ab12cd.pulse").read_bytes() == b"x"

    def test_two_char_prefix_at_256_shards(self, tmp_path):
        library = PulseLibrary(tmp_path, shards=256)
        library.put("ab12cd.pulse", b"x")
        assert (tmp_path / "ab" / "ab12cd.pulse").is_file()

    def test_descriptor_written_once(self, tmp_path):
        PulseLibrary(tmp_path, shards=256)
        descriptor = json.loads((tmp_path / "library.json").read_text())
        assert descriptor["layout_version"] == LIBRARY_LAYOUT_VERSION
        assert descriptor["shards"] == 256
        assert descriptor["prefix_len"] == 2

    def test_existing_layout_wins_over_arguments(self, tmp_path):
        PulseLibrary(tmp_path, shards=256)
        reopened = PulseLibrary(tmp_path, shards=16)
        assert reopened.shards == 256
        assert reopened.prefix_len == 2

    def test_invalid_shard_count_rejected(self, tmp_path):
        with pytest.raises(ReproError):
            PulseLibrary(tmp_path, shards=7)

    def test_valid_shard_counts_are_hex_prefix_sized(self):
        assert VALID_SHARD_COUNTS == (16, 256, 4096)

    def test_non_hex_name_still_shards(self, tmp_path):
        library = PulseLibrary(tmp_path, shards=16)
        library.put("zz-not-hex.pulse", b"y")
        assert library.get("zz-not-hex.pulse") == b"y"
        shard = library.shard_name("zz-not-hex.pulse")
        assert len(shard) == 1 and shard in "0123456789abcdef"


class TestRoundTrip:
    def test_put_get_delete(self, tmp_path):
        library = PulseLibrary(tmp_path, shards=16)
        library.put(_name(1), b"payload-1")
        assert library.get(_name(1)) == b"payload-1"
        assert _name(1) in library
        assert library.delete(_name(1))
        assert library.get(_name(1)) is None
        assert _name(1) not in library

    def test_overwrite_replaces_payload(self, tmp_path):
        library = PulseLibrary(tmp_path, shards=16)
        library.put(_name(2), b"old")
        library.put(_name(2), b"new")
        assert library.get(_name(2)) == b"new"
        assert library.count() == 1

    def test_missing_entry_is_none(self, tmp_path):
        library = PulseLibrary(tmp_path, shards=16)
        assert library.get(_name(3)) is None

    def test_names_and_count(self, tmp_path):
        library = PulseLibrary(tmp_path, shards=16)
        for i in range(5):
            library.put(_name(i), b"x" * (i + 1))
        assert library.count() == 5
        assert library.names() == sorted(_name(i) for i in range(5))
        assert library.sweep()["total_bytes"] == sum(range(1, 6))

    def test_reopen_serves_existing_entries(self, tmp_path):
        PulseLibrary(tmp_path, shards=16).put(_name(4), b"durable")
        assert PulseLibrary(tmp_path).get(_name(4)) == b"durable"


class TestManifest:
    def test_put_indexes_entry(self, tmp_path):
        library = PulseLibrary(tmp_path, shards=16)
        library.put(_name(5), b"abcdef", schema_version=2)
        shard = library.shard_dir(_name(5))
        manifest = load_manifest(shard)
        record = manifest["entries"][_name(5)]
        assert record["size"] == 6
        assert record["schema_version"] == 2
        assert record["created"] <= record["last_used"]

    def test_get_bumps_last_used(self, tmp_path):
        library = PulseLibrary(tmp_path, shards=16)
        library.put(_name(6), b"x")
        shard = library.shard_dir(_name(6))
        before = load_manifest(shard)["entries"][_name(6)]["last_used"]
        # Stamps round to milliseconds; force a visible gap.
        import time

        time.sleep(0.005)
        library.get(_name(6))
        after = load_manifest(shard)["entries"][_name(6)]["last_used"]
        assert after >= before

    def test_overwrite_preserves_created_stamp(self, tmp_path):
        library = PulseLibrary(tmp_path, shards=16)
        library.put(_name(7), b"v1")
        shard = library.shard_dir(_name(7))
        created = load_manifest(shard)["entries"][_name(7)]["created"]
        library.put(_name(7), b"v2-longer")
        record = load_manifest(shard)["entries"][_name(7)]
        assert record["created"] == created
        assert record["size"] == len(b"v2-longer")

    def test_orphan_file_still_served(self, tmp_path):
        """Data files are the source of truth; the index is advisory."""
        library = PulseLibrary(tmp_path, shards=16)
        shard = tmp_path / "0"
        shard.mkdir()
        (shard / _name(8)).write_bytes(b"orphan")
        assert library.get(_name(8)) == b"orphan"

    def test_corrupt_manifest_tolerated(self, tmp_path):
        library = PulseLibrary(tmp_path, shards=16)
        library.put(_name(9), b"x")
        shard = library.shard_dir(_name(9))
        (shard / "manifest.json").write_text("{ not json")
        assert library.get(_name(9)) == b"x"
        # The next put rebuilds a valid manifest for its own entry.
        library.put(_name(9), b"y")
        assert load_manifest(shard)["entries"][_name(9)]["size"] == 1


class TestStats:
    def test_stats_shape(self, tmp_path):
        library = PulseLibrary(tmp_path, shards=16, budget_mb=5.0)
        for i in range(4):
            library.put(_name(i), b"x" * 100)
        library.get(_name(0))
        stats = library.stats()
        assert stats["shards"] == 16
        assert stats["budget_mb"] == 5.0
        assert stats["puts"] == 4
        assert stats["gets"] == 1 and stats["get_hits"] == 1
        swept = library.sweep()
        assert swept["entries"] == 4
        assert swept["indexed_entries"] == 4
        assert swept["total_bytes"] == 400
        assert swept["index_bytes"] > 0
        assert swept["nonempty_shards"] >= 1
        assert swept["evictions"] == 0


class TestCounters:
    def test_concurrent_bumps_are_not_lost(self, tmp_path):
        import sys

        library = PulseLibrary(tmp_path, shards=16)

        def worker(t):
            for i in range(50):
                name = _name(t * 1000 + i)
                library.put(name, b"x")
                library.get(name)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        stats = library.stats()
        assert stats["puts"] == 200
        assert stats["gets"] == 200 and stats["get_hits"] == 200
        assert stats["index_errors"] == 0

    def test_counters_survive_pickling(self, tmp_path):
        library = PulseLibrary(tmp_path, shards=16)
        library.put(_name(1), b"x")
        clone = pickle.loads(pickle.dumps(library))
        clone.put(_name(2), b"y")
        assert clone.stats()["puts"] == 2


class TestPickling:
    def test_library_crosses_process_boundary(self, tmp_path):
        """Block compilers (cache + library included) ship to pool workers."""
        library = PulseLibrary(tmp_path, shards=16)
        library.put(_name(10), b"shipped")
        clone = pickle.loads(pickle.dumps(library))
        assert clone.get(_name(10)) == b"shipped"
        clone.put(_name(11), b"from-clone")
        assert library.get(_name(11)) == b"from-clone"


class TestFileLock:
    def test_reentry_rejected(self, tmp_path):
        lock = FileLock(tmp_path / ".lock")
        with lock:
            assert lock.locked
            with pytest.raises(RuntimeError):
                lock.acquire()
        assert not lock.locked

    def test_mutual_exclusion_across_instances(self, tmp_path):
        """Two lock objects on one path (as two processes would hold) exclude."""
        path = tmp_path / ".lock"
        order = []

        def worker(tag):
            with FileLock(path):
                order.append(("enter", tag))
                import time

                time.sleep(0.02)
                order.append(("exit", tag))

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Critical sections must never interleave.
        for i in range(0, len(order), 2):
            assert order[i][0] == "enter"
            assert order[i + 1] == ("exit", order[i][1])

    def test_pickles_unlocked(self, tmp_path):
        lock = FileLock(tmp_path / ".lock")
        with lock:
            clone = pickle.loads(pickle.dumps(lock))
        assert not clone.locked
        with clone:
            pass
