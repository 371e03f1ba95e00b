"""Per-shard manifests and their journals: the pulse library's index.

Each shard directory carries a folded index, ``manifest.json``:

.. code-block:: json

    {
      "manifest_version": 1,
      "evictions": 3,
      "entries": {
        "abcdef…-0123….pulse": {
          "size": 18432,
          "created": 1721800000.12,
          "last_used": 1721800411.02,
          "schema_version": 2,
          "target": {"dim": 4, "ctx": "9f…", "sig": "<base64 float32>"}
        }
      }
    }

and an append-only ``journal.jsonl`` of the writes since the last fold.
The journal's first line is a header, ``{"base": <manifest bytes>,
"gen": "<16 hex>"}``, written by the fold that started it; every later
line is one record:

* ``{"name": n, "size": s, "t": now, "schema_version": v, "target": {…}}``
  — a put (``schema_version`` and ``target`` optional);
* ``{"name": n, "op": "del"}`` — a delete;
* ``{"name": n, "op": "target", "target": {…}}`` — healed metadata for an
  existing entry.

:func:`read_manifest` / :func:`load_manifest` replay the journal over the
manifest: later lines win, and an overwrite without ``target`` keeps the
earlier ``created`` and ``target`` values.  Replaying a record twice
changes nothing, so a fold that crashes after writing the manifest but
before resetting the journal loses nothing either.  The optional
``"target"`` key is the approximate-match metadata of
:mod:`repro.library.neighbors`.

Writes
------
A writer appends its record with one ``O_APPEND`` write under a shared
``flock`` on the journal.  Each record is written as ``"\\n" + JSON +
"\\n"``: a record torn by a crash mid-write ends at the next record's
leading newline and is skipped alone, and a torn last line is never
read.  :func:`fold_journal` takes the exclusive lock, replays the journal,
rewrites ``manifest.json`` atomically (temp + ``os.replace``), and resets
the journal to a fresh header with a new generation, so no concurrent
append can be lost.  ``gc`` folds every shard, and a put folds its shard
once the journal has grown larger than the manifest (the header's
``base``), which keeps the fold work per put constant on average.

The manifest is an *index*, not the source of truth — the data files are.
Readers that find a file with no index record still serve it, and
:meth:`repro.library.store.PulseLibrary.gc` reconciles every manifest
against the shard's actual contents (stat sizes, drops ghosts, adopts
orphans) before making eviction decisions.  Reconciliation updates records
in place, so extra keys like ``"target"`` survive every ``gc``.

A reader's position in a shard is a :class:`JournalState`: the journal's
generation, the bytes of it read so far, and the journal file's
``(st_ino, st_mtime_ns, st_size)`` at that point.  One ``stat`` of the
journal tells whether the shard changed since; if it did and the
generation is the same, :func:`read_manifest` reads only the appended
bytes.
"""

from __future__ import annotations

import json
import os
import uuid
from pathlib import Path
from typing import NamedTuple

from repro.library.files import read_file, replace_file
from repro.library.locking import flock

#: Format version embedded in every manifest file.  A manifest with any
#: other version is rebuilt from the shard's data files instead of trusted.
MANIFEST_VERSION = 1

MANIFEST_FILENAME = "manifest.json"
JOURNAL_FILENAME = "journal.jsonl"

#: Bytes read to find a journal's header line (it is about 45 bytes).
_HEADER_READ = 256


class JournalState(NamedTuple):
    """How much of a shard's journal a reader or writer has seen."""

    gen: str | None  # the journal's generation (None: no header yet)
    offset: int  # bytes of complete lines seen
    identity: tuple | None  # the file's (ino, mtime_ns, size) at ``offset``


def empty_manifest() -> dict:
    """A fresh manifest structure for a shard with no entries."""
    return {"manifest_version": MANIFEST_VERSION, "evictions": 0, "entries": {}}


def _dumps(obj) -> bytes:
    return json.dumps(obj, separators=(",", ":"), sort_keys=True).encode()


def _identity(stat: os.stat_result) -> tuple:
    return (stat.st_ino, stat.st_mtime_ns, stat.st_size)


def journal_identity(shard_dir: str | Path) -> tuple | None:
    """``(st_ino, st_mtime_ns, st_size)`` of a shard's journal, or ``None``
    when it has none."""
    try:
        return _identity(os.stat(os.path.join(shard_dir, JOURNAL_FILENAME)))
    except OSError:
        return None


def _read_base(shard_dir: Path) -> dict:
    """The folded ``manifest.json``; empty when missing or damaged."""
    try:
        data = json.loads(read_file(shard_dir / MANIFEST_FILENAME))
    except (OSError, ValueError):
        return empty_manifest()
    if (
        not isinstance(data, dict)
        or data.get("manifest_version") != MANIFEST_VERSION
        or not isinstance(data.get("entries"), dict)
    ):
        return empty_manifest()
    data.setdefault("evictions", 0)
    return data


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def apply_record(entries: dict, record) -> None:
    """Replay one journal record over ``entries`` (malformed ones are
    skipped)."""
    if not isinstance(record, dict) or not isinstance(record.get("name"), str):
        return
    name = record["name"]
    op = record.get("op")
    previous = entries.get(name)
    if op == "del":
        entries.pop(name, None)
    elif op == "target":
        if isinstance(previous, dict) and isinstance(record.get("target"), dict):
            entries[name] = dict(previous, target=record["target"])
    elif op is None and all(_number(record.get(k)) for k in ("size", "t")):
        created = record["t"]
        target = record.get("target")
        if isinstance(previous, dict):
            # A damaged earlier record (non-dict junk, a missing stamp)
            # must not crash the replay.
            if _number(previous.get("created")):
                created = previous["created"]
            if target is None:
                target = previous.get("target")
        fresh = entry_record(
            record["size"], created, record["t"], record.get("schema_version")
        )
        if isinstance(target, dict):
            fresh["target"] = target
        entries[name] = fresh


def _parse_lines(data: bytes) -> tuple:
    """``(records, consumed)``: the JSON objects on the complete lines of
    ``data`` and how many bytes those lines span.  Undecodable lines (a
    torn record, foreign junk) are skipped; a trailing partial line is
    left unconsumed."""
    consumed = data.rfind(b"\n") + 1
    records = []
    for line in data[:consumed].split(b"\n"):
        if line:
            try:
                records.append(json.loads(line))
            except ValueError:
                continue
    return records, consumed


def _header(fd: int) -> tuple:
    """``(gen, base)`` from a journal's first line; ``(None, 0)`` when it
    has no complete header."""
    head = os.pread(fd, _HEADER_READ, 0)
    end = head.find(b"\n")
    if end > 0:
        try:
            header = json.loads(head[:end])
        except ValueError:
            header = None
        if isinstance(header, dict) and isinstance(header.get("gen"), str):
            base = header.get("base")
            return header["gen"], base if _number(base) else 0
    return None, 0


def _read_to_end(fd: int, start: int) -> tuple:
    """``(data, identity)``: the bytes from ``start`` to the end the file
    has now, and its ``(ino, mtime_ns, size)``."""
    identity = _identity(os.fstat(fd))
    size = identity[2]
    chunks = []
    while start < size:
        chunk = os.pread(fd, size - start, start)
        if not chunk:
            break
        chunks.append(chunk)
        start += len(chunk)
    return b"".join(chunks), identity


def read_manifest(shard_dir: Path, since: JournalState | None = None) -> tuple:
    """Read a shard's index under the journal's shared lock.

    Returns ``(manifest, records, state)``: ``manifest.json`` with the
    journal replayed over it, no records, and the :class:`JournalState`
    read up to.  When ``since`` names this journal's generation, only the
    complete lines appended after ``since.offset`` are read instead:
    ``manifest`` is ``None`` and ``records`` holds them in order.
    """
    try:
        fd = os.open(shard_dir / JOURNAL_FILENAME, os.O_RDONLY)
    except FileNotFoundError:
        return _read_base(shard_dir), [], JournalState(None, 0, None)
    try:
        flock(fd, shared=True)
        gen, _base = _header(fd)
        tail = gen is not None and since is not None and since.gen == gen
        start = since.offset if tail else 0
        data, identity = _read_to_end(fd, start)
        records, consumed = _parse_lines(data)
        end = start + consumed
        state = JournalState(gen, end, identity if identity[2] == end else None)
        if tail:
            return None, records, state
        manifest = _read_base(shard_dir)
    finally:
        os.close(fd)
    for record in records:
        apply_record(manifest["entries"], record)
    return manifest, [], state


def load_manifest(shard_dir: Path) -> dict:
    """A shard's index: ``manifest.json`` with its journal replayed
    (:func:`read_manifest`).

    A missing, unreadable, or wrong-version manifest counts as empty — the
    data files remain authoritative and ``gc`` rebuilds the index.
    """
    return read_manifest(shard_dir)[0]


def append_record(shard_dir: Path, record: dict) -> tuple:
    """Append ``record`` to the shard's journal with one ``O_APPEND`` write.

    Returns ``(since, state, fold_due)``: the journal positions just before
    and just after this record (``state.identity`` is ``None`` when another
    writer appended in between), and whether the journal has grown larger
    than the manifest it extends.
    """
    line = b"\n" + _dumps(record) + b"\n"
    flags = os.O_RDWR | os.O_APPEND | os.O_CREAT
    fd = os.open(shard_dir / JOURNAL_FILENAME, flags, 0o644)
    try:
        flock(fd, shared=True)
        gen, base = _header(fd)
        if os.write(fd, line) != len(line):
            raise OSError(f"short journal write in {shard_dir}")
        end = os.lseek(fd, 0, os.SEEK_CUR)
        identity = _identity(os.fstat(fd))
    finally:
        os.close(fd)
    since = JournalState(gen, end - len(line), None)
    state = JournalState(gen, end, identity if identity[2] == end else None)
    return since, state, end > base


def save_manifest(shard_dir: Path, manifest: dict) -> int:
    """Atomically write ``manifest`` as the shard's ``manifest.json``;
    returns its size in bytes.  Compact JSON (the C encoder's fast path);
    readers accept any layout."""
    data = _dumps(manifest)
    replace_file(shard_dir / MANIFEST_FILENAME, data)
    return len(data)


def fold_journal(shard_dir: Path, mutate=None) -> tuple:
    """Fold the shard's journal into ``manifest.json``.

    Under the journal's exclusive lock: replay the journal over the
    manifest, apply ``mutate(manifest)`` if given, save the manifest, and
    reset the journal to a header with a new generation.  Returns
    ``(manifest, state)``, ``state`` being the fresh journal's position.
    """
    fd = os.open(shard_dir / JOURNAL_FILENAME, os.O_RDWR | os.O_CREAT, 0o644)
    try:
        flock(fd, shared=False)
        records, _consumed = _parse_lines(_read_to_end(fd, 0)[0])
        manifest = _read_base(shard_dir)
        for record in records:
            apply_record(manifest["entries"], record)
        if mutate is not None:
            mutate(manifest)
        size = save_manifest(shard_dir, manifest)
        gen = uuid.uuid4().hex[:16]
        header = _dumps({"base": size, "gen": gen}) + b"\n"
        os.ftruncate(fd, 0)
        os.pwrite(fd, header, 0)
        state = JournalState(gen, len(header), _identity(os.fstat(fd)))
    finally:
        os.close(fd)
    return manifest, state


def entry_record(size: int, created: float, last_used: float, schema_version=None) -> dict:
    """One manifest entry value (see module docstring for the format)."""
    record = {
        "size": int(size),
        "created": round(float(created), 3),
        "last_used": round(float(last_used), 3),
    }
    if schema_version is not None:
        record["schema_version"] = int(schema_version)
    return record


def rebuild_entries(shard_dir: Path, manifest: dict, suffix: str) -> dict:
    """Reconcile ``manifest['entries']`` with the files actually in the shard.

    Ghost entries (indexed but deleted on disk) are dropped; orphan files
    (on disk but unindexed — e.g. written by a crashed process or a foreign
    writer) are adopted with stamps taken from ``stat``.  Sizes are
    refreshed from disk, and damaged records — a legacy-migrated or
    hand-edited entry whose ``created``/``last_used`` stamp is missing or
    not a number — are healed from the file mtime so LRU decisions (and the
    gc inventory sort) never trip over them.  A file mtime *newer* than the
    recorded ``last_used`` also wins: a get hit records its use only as the
    data file's mtime, so every gc reconciles before evicting.  Returns the
    reconciled entries dict (the manifest is modified in place).
    """
    entries: dict = manifest["entries"]
    on_disk = {}
    for path in shard_dir.glob(f"*{suffix}"):
        try:
            stat = path.stat()
        except OSError:
            continue
        on_disk[path.name] = stat
    for name in list(entries):
        if name not in on_disk:
            del entries[name]
    for name, stat in on_disk.items():
        record = entries.get(name)
        if not isinstance(record, dict):
            entries[name] = entry_record(
                stat.st_size, stat.st_mtime, stat.st_mtime
            )
        else:
            record["size"] = int(stat.st_size)
            for stamp in ("created", "last_used"):
                if not _number(record.get(stamp)):
                    record[stamp] = round(float(stat.st_mtime), 3)
            mtime = round(float(stat.st_mtime), 3)
            if mtime > record["last_used"]:
                record["last_used"] = mtime
    return entries
