"""The shard journal: data file first, then one journal record.

A put writes its data file and appends one record to its shard's
``journal.jsonl``; a get hit writes no index at all.  Readers replay the
journal over ``manifest.json``; ``gc`` (and a put whose journal outgrew
its manifest) folds it back in under the journal's exclusive lock.
"""

import json
import multiprocessing
import os

import pytest

import repro.library.manifest as manifest_module
import repro.library.store as store_module
from repro.library import PulseLibrary, load_manifest
from repro.library.manifest import JOURNAL_FILENAME, MANIFEST_FILENAME


def _name(i: int) -> str:
    # 40 hex fingerprint chars + context digest; every i < 16**39 lands in
    # shard "0" of a 16-shard library.
    return f"{i:040x}-{i:016x}.pulse"


def _folded_shard(tmp_path, entries: int = 4):
    """A library whose shard "0" holds ``entries`` folded entries, so its
    manifest is larger than any one journal record."""
    library = PulseLibrary(tmp_path, shards=16)
    for i in range(entries):
        library.put(_name(i), b"x" * 64)
    library.gc()
    return library, tmp_path / "0"


@pytest.fixture
def index_calls(monkeypatch):
    """Record every whole-index read, fold and manifest write."""
    calls = []

    def spy(module, function):
        original = getattr(module, function)

        def recorded(*args, **kwargs):
            calls.append(function)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, function, recorded)

    for function in ("load_manifest", "read_manifest", "save_manifest", "fold_journal"):
        spy(manifest_module, function)
    for function in ("load_manifest", "fold_journal"):
        spy(store_module, function)
    return calls


@pytest.fixture
def writes(monkeypatch):
    """Every ``os.write`` call as ``(inode written to, bytes)``."""
    calls = []
    original = os.write

    def recorded(fd, data):
        calls.append((os.fstat(fd).st_ino, bytes(data)))
        return original(fd, data)

    monkeypatch.setattr(os, "write", recorded)
    return calls


def _journal_writes(writes, shard) -> list:
    inode = (shard / JOURNAL_FILENAME).stat().st_ino
    return [data for written, data in writes if written == inode]


class TestOneAppendPerWrite:
    def test_put_appends_one_record_and_rewrites_no_manifest(
        self, tmp_path, index_calls, writes
    ):
        library, shard = _folded_shard(tmp_path)
        manifest_before = (shard / MANIFEST_FILENAME).read_bytes()
        journal_before = (shard / JOURNAL_FILENAME).read_bytes()
        index_calls.clear()
        writes.clear()

        library.put(_name(9), b"fresh", schema_version=2)

        assert index_calls == []
        assert len(_journal_writes(writes, shard)) == 1
        assert (shard / MANIFEST_FILENAME).read_bytes() == manifest_before
        journal = (shard / JOURNAL_FILENAME).read_bytes()
        assert journal.startswith(journal_before)
        record = json.loads(journal[len(journal_before):])
        assert record["name"] == _name(9) and record["size"] == 5

    def test_get_hit_writes_no_index(self, tmp_path, index_calls, writes):
        library, shard = _folded_shard(tmp_path)
        stat = {f: (shard / f).stat() for f in (MANIFEST_FILENAME, JOURNAL_FILENAME)}
        index_calls.clear()
        writes.clear()

        assert library.get(_name(1)) == b"x" * 64

        assert index_calls == []
        assert writes == []
        for filename, before in stat.items():
            after = (shard / filename).stat()
            assert (after.st_ino, after.st_size, after.st_mtime_ns) == (
                before.st_ino,
                before.st_size,
                before.st_mtime_ns,
            )

    def test_put_folds_once_the_journal_outgrows_the_manifest(self, tmp_path):
        library, shard = _folded_shard(tmp_path, entries=2)
        manifest_size = (shard / MANIFEST_FILENAME).stat().st_size
        for i in range(10, 40):
            library.put(_name(i), b"y")
            assert (shard / JOURNAL_FILENAME).stat().st_size <= max(
                manifest_size, (shard / MANIFEST_FILENAME).stat().st_size
            )
        assert set(load_manifest(shard)["entries"]) == {
            _name(i) for i in (0, 1, *range(10, 40))
        }

    def test_delete_and_overwrite_replay_in_order(self, tmp_path):
        library, shard = _folded_shard(tmp_path)
        created = load_manifest(shard)["entries"][_name(2)]["created"]
        library.delete(_name(1))
        library.put(_name(2), b"longer payload")
        entries = load_manifest(shard)["entries"]
        assert _name(1) not in entries
        assert entries[_name(2)]["size"] == len(b"longer payload")
        assert entries[_name(2)]["created"] == created


class TestTornRecord:
    def test_torn_last_line_is_skipped_served_and_adopted(self, tmp_path):
        library, shard = _folded_shard(tmp_path)
        torn = _name(7)
        # A writer that crashed mid-append: its data file landed, its
        # record stopped short of the closing newline.
        (shard / torn).write_bytes(b"torn entry")
        with open(shard / JOURNAL_FILENAME, "ab") as fh:
            fh.write(b'\n{"name":"' + torn.encode() + b'","size":1')

        assert torn not in load_manifest(shard)["entries"]
        assert library.get(torn) == b"torn entry"
        # The next record is not swallowed by the torn one.
        library.put(_name(8), b"after")
        entries = load_manifest(shard)["entries"]
        assert _name(8) in entries and torn not in entries

        report = library.gc()
        assert report.orphans_adopted == 1 and report.ghosts_dropped == 0
        assert load_manifest(shard)["entries"][torn]["size"] == len(b"torn entry")


def _writer(directory: str, base: int, count: int, start) -> None:
    library = PulseLibrary(directory)
    start.wait()
    for i in range(count):
        meta = {"dim": 2, "ctx": "c", "sig": str(base + i)}
        library.put(_name(base + i), b"w" * (1 + i % 7), schema_version=2, meta=meta)


def _collector(directory: str, start, stop) -> None:
    library = PulseLibrary(directory)
    start.wait()
    while not stop.is_set():
        library.gc()


class TestConcurrentProcesses:
    COUNT = 150

    def test_two_writers_and_a_collector_lose_no_record(self, tmp_path):
        PulseLibrary(tmp_path, shards=16)
        context = multiprocessing.get_context("spawn")
        start, stop = context.Barrier(3, timeout=60), context.Event()
        collector = context.Process(
            target=_collector, args=(str(tmp_path), start, stop)
        )
        writers = [
            context.Process(
                target=_writer, args=(str(tmp_path), base, self.COUNT, start)
            )
            for base in (0x1000, 0x2000)
        ]
        collector.start()
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join(timeout=120)
        stop.set()
        collector.join(timeout=60)
        assert not any(p.is_alive() for p in (*writers, collector))
        assert all(p.exitcode == 0 for p in (*writers, collector))

        written = range(self.COUNT)
        entries = load_manifest(tmp_path / "0")["entries"]
        assert set(entries) == {
            _name(base + i) for base in (0x1000, 0x2000) for i in written
        }
        # gc adopts a file whose record is missing, but only its record
        # carries the schema tag and target metadata.
        for base in (0x1000, 0x2000):
            for i in written:
                record = entries[_name(base + i)]
                assert record["size"] == 1 + i % 7
                assert record["schema_version"] == 2
                assert record["target"]["sig"] == str(base + i)
        report = PulseLibrary(tmp_path).gc()
        assert (report.orphans_adopted, report.ghosts_dropped) == (0, 0)
