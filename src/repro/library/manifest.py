"""Per-shard JSON manifests: the pulse library's index.

Each shard directory carries one ``manifest.json`` describing its entries:

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

The optional ``"target"`` key is the approximate-match metadata of
:mod:`repro.library.neighbors` (target dimension, physical-context token,
compact unitary signature), written at ``put`` time and healed lazily for
legacy entries.  Reconciliation updates records *in place*, so extra keys
like it survive every ``gc``.

The manifest is an *index*, not the source of truth — the data files are.
Readers that find a file with no manifest entry still serve it, and
:meth:`repro.library.store.PulseLibrary.gc` reconciles every manifest
against the shard's actual contents (stat sizes, drops ghosts, adopts
orphans) before making eviction decisions.  This keeps the library robust
against crashes between a data write and its index update.

All manifest writes are atomic (temp + ``os.replace``) and happen under the
shard's :class:`~repro.library.locking.FileLock`, so concurrent processes
never interleave read-modify-write cycles.  Manifests are written as
compact JSON (the C encoder's fast path); readers accept any layout.

Every write replaces the file, so a manifest's :func:`manifest_identity`
— ``(st_ino, st_mtime_ns, st_size)`` — moves whenever its content does.
That lets a reader tell whether a shard changed since it last read it with
one ``stat`` instead of a re-read.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.library.files import replace_file

#: Format version embedded in every manifest file.  A manifest with any
#: other version is rebuilt from the shard's data files instead of trusted.
MANIFEST_VERSION = 1

MANIFEST_FILENAME = "manifest.json"


def empty_manifest() -> dict:
    """A fresh manifest structure for a shard with no entries."""
    return {"manifest_version": MANIFEST_VERSION, "evictions": 0, "entries": {}}


def load_manifest(shard_dir: Path) -> dict:
    """Read a shard's manifest, tolerating absence and corruption.

    A missing, unreadable, or wrong-version manifest yields an empty one —
    the data files remain authoritative and ``gc`` rebuilds the index.
    """
    return read_manifest(shard_dir)[0]


def read_manifest(shard_dir: Path) -> tuple:
    """:func:`load_manifest` plus the :func:`manifest_identity` of the very
    file version it read (``None`` when the shard has no manifest)."""
    try:
        with open(shard_dir / MANIFEST_FILENAME, "rb") as fh:
            identity = _identity(os.fstat(fh.fileno()))
            raw = fh.read()
    except OSError:
        return empty_manifest(), None
    try:
        data = json.loads(raw)
    except ValueError:
        return empty_manifest(), identity
    if (
        not isinstance(data, dict)
        or data.get("manifest_version") != MANIFEST_VERSION
        or not isinstance(data.get("entries"), dict)
    ):
        return empty_manifest(), identity
    data.setdefault("evictions", 0)
    return data, identity


def save_manifest(shard_dir: Path, manifest: dict) -> tuple:
    """Atomically write ``manifest`` into ``shard_dir``.

    Returns the written file's :func:`manifest_identity` (the rename keeps
    the temp file's inode, mtime and size).
    """
    text = json.dumps(manifest, separators=(",", ":"), sort_keys=True)
    return _identity(replace_file(shard_dir / MANIFEST_FILENAME, text.encode()))


def _identity(stat: os.stat_result) -> tuple:
    return (stat.st_ino, stat.st_mtime_ns, stat.st_size)


def manifest_identity(shard_dir: str | Path) -> tuple | None:
    """``(st_ino, st_mtime_ns, st_size)`` of a shard's manifest, or ``None``
    when it has none."""
    try:
        return _identity(os.stat(os.path.join(shard_dir, MANIFEST_FILENAME)))
    except OSError:
        return None


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
    recorded ``last_used`` also wins: readers that stamp uses cheaply via
    ``os.utime`` alone (the prefetch hit path) stay LRU-honest because
    every gc reconciles before evicting.  Returns the reconciled entries
    dict (the manifest is modified in place).
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
                if not isinstance(record.get(stamp), (int, float)) or isinstance(
                    record.get(stamp), bool
                ):
                    record[stamp] = round(float(stat.st_mtime), 3)
            mtime = round(float(stat.st_mtime), 3)
            if mtime > record["last_used"]:
                record["last_used"] = mtime
    return entries
