"""Shard index primitives: journal records, folds, tail reads and
reconciliation, one function at a time.

The store-level behaviour (a put appends one record, a get hit writes no
index, writers and a collector lose nothing) lives in
``test_journal.py``; these tests pin the pieces it is built from.
"""

import json
import os

import pytest

from repro.library.files import read_file, replace_file
from repro.library.manifest import (
    JOURNAL_FILENAME,
    MANIFEST_FILENAME,
    MANIFEST_VERSION,
    JournalState,
    append_record,
    apply_record,
    empty_manifest,
    entry_record,
    fold_journal,
    journal_identity,
    load_manifest,
    read_manifest,
    rebuild_entries,
    save_manifest,
)


def _put(name, size=64, t=100.0, **extra):
    return {"name": name, "size": size, "t": t, **extra}


class TestApplyRecord:
    def test_put_creates_an_entry(self):
        entries = {}
        apply_record(entries, _put("a", 64, 100.0, schema_version=2))
        assert entries == {
            "a": {
                "size": 64,
                "created": 100.0,
                "last_used": 100.0,
                "schema_version": 2,
            }
        }

    def test_overwrite_keeps_created_and_target(self):
        entries = {}
        apply_record(entries, _put("a", 64, 100.0, target={"dim": 4}))
        apply_record(entries, _put("a", 80, 200.0))
        assert entries["a"]["created"] == 100.0
        assert entries["a"]["last_used"] == 200.0
        assert entries["a"]["size"] == 80
        assert entries["a"]["target"] == {"dim": 4}

    def test_overwrite_with_a_target_replaces_it(self):
        entries = {}
        apply_record(entries, _put("a", target={"dim": 4}))
        apply_record(entries, _put("a", t=150.0, target={"dim": 8}))
        assert entries["a"]["target"] == {"dim": 8}

    def test_delete_removes_and_ignores_unknown_names(self):
        entries = {}
        apply_record(entries, _put("a"))
        apply_record(entries, {"name": "a", "op": "del"})
        apply_record(entries, {"name": "b", "op": "del"})
        assert entries == {}

    def test_target_heals_an_existing_entry_only(self):
        entries = {}
        apply_record(entries, _put("a"))
        apply_record(entries, {"name": "a", "op": "target", "target": {"dim": 2}})
        apply_record(entries, {"name": "b", "op": "target", "target": {"dim": 2}})
        assert entries["a"]["target"] == {"dim": 2}
        assert "b" not in entries

    @pytest.mark.parametrize(
        "record",
        [
            "junk",
            None,
            {"size": 1, "t": 1.0},
            {"name": 5, "size": 1, "t": 1.0},
            {"name": "a", "size": True, "t": 1.0},
            {"name": "a", "size": 1},
            {"name": "a", "op": "frob", "size": 1, "t": 1.0},
            {"name": "a", "op": "target", "target": "dim=4"},
        ],
        ids=[
            "not-an-object",
            "null",
            "no-name",
            "name-not-a-string",
            "bool-size",
            "no-stamp",
            "unknown-op",
            "target-not-an-object",
        ],
    )
    def test_malformed_records_are_skipped(self, record):
        entries = {"a": entry_record(64, 100.0, 100.0)}
        before = json.loads(json.dumps(entries))
        apply_record(entries, record)
        assert entries == before

    def test_damaged_earlier_entry_does_not_stop_a_put(self):
        entries = {"a": "junk", "b": {"size": 1}}
        apply_record(entries, _put("a", t=300.0))
        apply_record(entries, _put("b", t=400.0))
        assert entries["a"]["created"] == 300.0
        assert entries["b"]["created"] == 400.0

    def test_replaying_twice_changes_nothing(self):
        records = [
            _put("a", target={"dim": 4}),
            _put("b", t=110.0),
            {"name": "a", "op": "target", "target": {"dim": 2}},
            {"name": "b", "op": "del"},
        ]
        once, twice = {}, {}
        for record in records:
            apply_record(once, record)
        for record in records + records:
            apply_record(twice, record)
        assert once == twice


class TestEntryRecord:
    def test_stamps_round_to_milliseconds(self):
        record = entry_record(10.0, 1.23456, 7.89012)
        assert record == {"size": 10, "created": 1.235, "last_used": 7.89}

    def test_schema_version_only_when_given(self):
        assert "schema_version" not in entry_record(1, 0, 0)
        assert entry_record(1, 0, 0, schema_version="3")["schema_version"] == 3


class TestJournal:
    def test_first_append_starts_a_headerless_journal(self, tmp_path):
        assert journal_identity(tmp_path) is None
        since, state, fold_due = append_record(tmp_path, _put("a"))
        assert since.gen is None and state.gen is None
        assert state.offset > since.offset
        assert fold_due  # no manifest yet: any journal outgrows it
        assert journal_identity(tmp_path) is not None
        assert load_manifest(tmp_path)["entries"]["a"]["size"] == 64

    def test_fold_writes_the_manifest_and_resets_the_journal(self, tmp_path):
        append_record(tmp_path, _put("a"))
        append_record(tmp_path, _put("b"))
        manifest, state = fold_journal(tmp_path)
        assert sorted(manifest["entries"]) == ["a", "b"]
        saved = json.loads((tmp_path / MANIFEST_FILENAME).read_bytes())
        assert saved == manifest
        header = json.loads((tmp_path / JOURNAL_FILENAME).read_bytes())
        base = len(read_file(tmp_path / MANIFEST_FILENAME))
        assert header == {"base": base, "gen": state.gen}
        # One small record does not outgrow a two-entry manifest.
        _, after, fold_due = append_record(tmp_path, {"name": "a", "op": "del"})
        assert after.gen == state.gen
        assert not fold_due

    def test_fold_applies_mutate_before_saving(self, tmp_path):
        append_record(tmp_path, _put("a"))

        def evict(manifest):
            manifest["entries"].pop("a")
            manifest["evictions"] += 1

        fold_journal(tmp_path, mutate=evict)
        assert load_manifest(tmp_path) == dict(empty_manifest(), evictions=1)

    def test_tail_read_returns_only_new_records(self, tmp_path):
        append_record(tmp_path, _put("a"))
        _, state = fold_journal(tmp_path)
        append_record(tmp_path, _put("b"))
        append_record(tmp_path, {"name": "a", "op": "del"})
        manifest, records, tail = read_manifest(tmp_path, since=state)
        assert manifest is None
        assert [record["name"] for record in records] == ["b", "a"]
        assert tail.gen == state.gen and tail.offset > state.offset
        assert tail.identity == journal_identity(tmp_path)

    def test_state_from_another_generation_reads_everything(self, tmp_path):
        append_record(tmp_path, _put("a"))
        _, old = fold_journal(tmp_path)
        append_record(tmp_path, _put("b"))
        _, new = fold_journal(tmp_path)
        assert new.gen != old.gen
        manifest, records, state = read_manifest(tmp_path, since=old)
        assert records == []
        assert sorted(manifest["entries"]) == ["a", "b"]
        assert state.gen == new.gen

    def test_torn_last_line_is_not_consumed(self, tmp_path):
        append_record(tmp_path, _put("a"))
        with open(tmp_path / JOURNAL_FILENAME, "ab") as journal:
            journal.write(b'\n{"name": "b", "si')
        manifest, _, state = read_manifest(tmp_path)
        assert sorted(manifest["entries"]) == ["a"]
        size = os.path.getsize(tmp_path / JOURNAL_FILENAME)
        assert state.offset < size
        # The reader's position is not a whole-file identity.
        assert state.identity is None

    @pytest.mark.parametrize(
        "content",
        [
            b"not json",
            json.dumps({"manifest_version": MANIFEST_VERSION + 1, "entries": {}}),
            json.dumps({"manifest_version": MANIFEST_VERSION, "entries": []}),
        ],
        ids=["garbage", "other-version", "entries-not-an-object"],
    )
    def test_untrusted_manifest_counts_as_empty(self, tmp_path, content):
        (tmp_path / MANIFEST_FILENAME).write_bytes(
            content if isinstance(content, bytes) else content.encode()
        )
        assert load_manifest(tmp_path) == empty_manifest()

    def test_saved_manifest_is_compact_and_sized(self, tmp_path):
        manifest = empty_manifest()
        manifest["entries"]["a"] = entry_record(64, 100.0, 100.0)
        size = save_manifest(tmp_path, manifest)
        data = read_file(tmp_path / MANIFEST_FILENAME)
        assert size == len(data)
        assert b" " not in data
        assert json.loads(data) == manifest

    def test_journal_state_is_a_plain_tuple(self):
        state = JournalState("0123456789abcdef", 45, (1, 2, 45))
        assert tuple(state) == ("0123456789abcdef", 45, (1, 2, 45))


class TestRebuildEntries:
    def test_drops_ghosts_adopts_orphans_and_refreshes_sizes(self, tmp_path):
        (tmp_path / "kept.pulse").write_bytes(b"x" * 10)
        (tmp_path / "orphan.pulse").write_bytes(b"y" * 7)
        (tmp_path / "notes.txt").write_bytes(b"ignored")
        manifest = empty_manifest()
        manifest["entries"]["kept.pulse"] = dict(
            entry_record(999, 1.0, 2.0), target={"dim": 4}
        )
        manifest["entries"]["ghost.pulse"] = entry_record(5, 1.0, 2.0)
        entries = rebuild_entries(tmp_path, manifest, ".pulse")
        assert entries is manifest["entries"]
        assert sorted(entries) == ["kept.pulse", "orphan.pulse"]
        assert entries["kept.pulse"]["size"] == 10
        assert entries["kept.pulse"]["created"] == 1.0
        assert entries["kept.pulse"]["target"] == {"dim": 4}
        assert entries["orphan.pulse"]["size"] == 7

    def test_heals_stamps_and_takes_a_newer_mtime(self, tmp_path):
        path = tmp_path / "a.pulse"
        path.write_bytes(b"x")
        os.utime(path, (500.0, 500.0))
        manifest = empty_manifest()
        manifest["entries"]["a.pulse"] = {"size": 1, "created": "soon"}
        entries = rebuild_entries(tmp_path, manifest, ".pulse")
        assert entries["a.pulse"]["created"] == 500.0
        assert entries["a.pulse"]["last_used"] == 500.0
        manifest["entries"]["a.pulse"]["last_used"] = 100.0
        rebuild_entries(tmp_path, manifest, ".pulse")
        assert manifest["entries"]["a.pulse"]["last_used"] == 500.0


class TestFiles:
    def test_replace_file_swaps_whole_contents(self, tmp_path):
        path = tmp_path / "data.bin"
        replace_file(path, b"first")
        replace_file(path, b"second, longer")
        assert read_file(path) == b"second, longer"
        assert os.listdir(tmp_path) == ["data.bin"]

    def test_failed_replace_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "dir"
        target.mkdir()
        (target / "inside").write_bytes(b"")
        # Renaming a file over a non-empty directory fails after the write.
        with pytest.raises(OSError):
            replace_file(target, b"data")
        assert sorted(os.listdir(tmp_path)) == ["dir"]

    def test_read_file_of_a_missing_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_file(tmp_path / "absent")
