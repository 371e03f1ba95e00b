"""The sharded, indexed, GC-managed pulse store.

:class:`PulseLibrary` owns a directory of opaque payload files (pickled
GRAPE cache entries, in practice) laid out for paper-scale libraries and
multi-process sharing:

``<directory>/``
    ``library.json`` — layout descriptor (layout version, shard count,
    filename prefix length).  Written once at creation; the layout of an
    existing library is immutable.
``<directory>/<prefix>/``
    One shard per filename prefix (e.g. ``ab/``), so a million-entry
    library fans out across shards instead of stressing one directory.
    Each shard holds its data files plus its index: a folded
    ``manifest.json`` and the ``journal.jsonl`` of writes since
    (:mod:`repro.library.manifest`).

Filenames begin with the block unitary's hex fingerprint
(:func:`repro.core.cache.unitary_fingerprint`), so the shard *is* the
fingerprint prefix — SHA-256 uniformity gives balanced shards for free.

Consistency model
-----------------
Data file first, then one journal record.  Data files are the source of
truth and are written atomically (unique temp name + ``os.replace``), so
readers never observe partial entries and concurrent writers race
benignly.  Each put, delete or healed annotation then appends one record
to its shard's journal with a single ``O_APPEND`` write under a shared
``flock``; a crash between the data write and the append leaves an
*orphan* that is still served by :meth:`get` and adopted by the next
:meth:`gc`.  A get hit writes no index at all: it bumps the data file's
mtime, which :meth:`gc` reads as the entry's ``last_used``.  :meth:`gc`
folds every journal into its manifest under the journal's exclusive lock,
and a put folds its shard once the journal outgrows the manifest.
Eviction is LRU by ``last_used`` against the size budget a :meth:`gc` call
is given (``library gc --budget-mb``), and only ever happens inside that
call — normal puts never block on collection.

Legacy flat directories (the pre-library ``PersistentPulseCache`` layout:
``*.pulse`` files directly in the root) are migrated in place, once, on
first open: each file moves bit-identically into its shard and gains an
index entry.

Telemetry comes in two costs.  :meth:`PulseLibrary.stats` reads in-memory
counters only, so per-request callers may use it freely;
:meth:`PulseLibrary.sweep` walks every shard (data files and manifests)
and is for inspection surfaces only.
"""

from __future__ import annotations

import math
import os
import threading
import time
import weakref
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from repro.errors import ReproError
from repro.library.files import read_file, replace_file
from repro.library.locking import FileLock
from repro.library.manifest import (
    JOURNAL_FILENAME,
    MANIFEST_FILENAME,
    append_record,
    entry_record,
    fold_journal,
    load_manifest,
    rebuild_entries,
)
from repro.service.config import CACHE_SHARD_CHOICES, ServiceConfig

#: On-disk layout version recorded in ``library.json``.
LIBRARY_LAYOUT_VERSION = 1

LIBRARY_DESCRIPTOR = "library.json"

#: Shard counts that map to whole hex-character prefixes of the fingerprint
#: (one source of truth: :data:`repro.service.config.CACHE_SHARD_CHOICES`).
VALID_SHARD_COUNTS = CACHE_SHARD_CHOICES

#: Temp files older than this are considered crash debris and collectable.
_STALE_TMP_SECONDS = 60.0


@dataclass
class GCReport:
    """Outcome of one :meth:`PulseLibrary.gc` pass."""

    entries_before: int = 0
    entries_after: int = 0
    bytes_before: int = 0
    bytes_after: int = 0
    evicted: int = 0
    bytes_freed: int = 0
    orphans_adopted: int = 0
    ghosts_dropped: int = 0
    stale_tmp_removed: int = 0
    budget_bytes: int | None = None
    wall_time_s: float = 0.0
    evicted_names: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "entries_before": self.entries_before,
            "entries_after": self.entries_after,
            "bytes_before": self.bytes_before,
            "bytes_after": self.bytes_after,
            "evicted": self.evicted,
            "bytes_freed": self.bytes_freed,
            "orphans_adopted": self.orphans_adopted,
            "ghosts_dropped": self.ghosts_dropped,
            "stale_tmp_removed": self.stale_tmp_removed,
            "budget_bytes": self.budget_bytes,
            "wall_time_s": round(self.wall_time_s, 6),
        }


def _resolve_shards(shards: int) -> int:
    if shards not in VALID_SHARD_COUNTS:
        raise ReproError(
            f"cache shard count must be one of {VALID_SHARD_COUNTS}, got {shards!r}"
        )
    return shards


class PulseLibrary:
    """A sharded on-disk store of fingerprint-named payload files."""

    suffix = ".pulse"

    def __init__(
        self,
        directory: str | os.PathLike,
        shards: int = ServiceConfig.cache_shards,
    ):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._global_lock = FileLock(self.directory / ".lock")
        # Submit threads share one library, so every lifetime counter is
        # bumped under this lock (see _bump).
        self._counter_lock = threading.Lock()
        # Weak reference to the callback told about every index write this
        # instance makes (see observe): the neighbor index's.
        self._observer = None
        self.migrated_entries = 0
        self.puts = 0
        self.gets = 0
        self.get_hits = 0
        self.index_errors = 0
        descriptor = self._load_descriptor()
        if descriptor is not None:
            # An existing library's layout is immutable: the descriptor wins
            # over arguments/config so every process fans out identically.
            self.shards = int(descriptor["shards"])
            self.prefix_len = int(descriptor["prefix_len"])
        else:
            self.shards = _resolve_shards(shards)
            self.prefix_len = int(round(math.log(self.shards, 16)))
            self._write_descriptor()
        self._migrate_flat_layout()

    # -- layout ----------------------------------------------------------------
    def _load_descriptor(self) -> dict | None:
        path = self.directory / LIBRARY_DESCRIPTOR
        try:
            import json

            data = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        if (
            isinstance(data, dict)
            and data.get("layout_version") == LIBRARY_LAYOUT_VERSION
            and data.get("shards") in VALID_SHARD_COUNTS
        ):
            return data
        return None

    def _write_descriptor(self) -> None:
        import json

        with self._global_lock:
            # A racing creator may have won the lock first; their layout
            # then governs this library.
            existing = self._load_descriptor()
            if existing is not None:
                self.shards = int(existing["shards"])
                self.prefix_len = int(existing["prefix_len"])
                return
            payload = {
                "layout_version": LIBRARY_LAYOUT_VERSION,
                "shards": self.shards,
                "prefix_len": self.prefix_len,
                "created": round(time.time(), 3),
            }
            tmp = self.directory / f".{LIBRARY_DESCRIPTOR}.{os.getpid()}.tmp"
            tmp.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
            os.replace(tmp, self.directory / LIBRARY_DESCRIPTOR)

    def shard_name(self, name: str) -> str:
        """The shard directory (fingerprint prefix) an entry lives in."""
        prefix = name[: self.prefix_len].lower()
        if len(prefix) == self.prefix_len and all(
            c in "0123456789abcdef" for c in prefix
        ):
            return prefix
        # Defensive: non-hex-named payloads are fanned out by name hash so
        # they still land in a valid shard instead of crashing the store.
        import hashlib

        return hashlib.sha256(name.encode()).hexdigest()[: self.prefix_len]

    def shard_dir(self, name: str) -> Path:
        return self.directory / self.shard_name(name)

    def path_for(self, name: str) -> Path:
        """Absolute path of entry ``name`` (whether or not it exists yet)."""
        return self.shard_dir(name) / name

    def _notify(self, shard: str, *args, **kwargs) -> None:
        callback = self._observer() if self._observer is not None else None
        if callback is not None:
            callback(shard, *args, **kwargs)

    def _append(self, shard_dir: Path, record: dict) -> None:
        """Append one journal record and tell the observer; fold the shard
        once its journal has outgrown its manifest."""
        since, state, fold_due = append_record(shard_dir, record)
        self._notify(shard_dir.name, since, state, records=(record,))
        if fold_due:
            self._fold(shard_dir)

    def _fold(self, shard_dir: Path, mutate=None) -> dict:
        """Fold a shard's journal into its manifest (see
        :func:`~repro.library.manifest.fold_journal`) and tell the
        observer; returns the manifest written."""
        manifest, state = fold_journal(shard_dir, mutate)
        self._notify(shard_dir.name, None, state, entries=manifest["entries"])
        return manifest

    def observe(self, callback) -> None:
        """Call the bound method ``callback`` after every index write this
        instance makes, replacing any earlier observer.

        An append calls ``callback(shard_name, since, state,
        records=(record,))``: ``since`` and ``state`` are the
        :class:`~repro.library.manifest.JournalState` just before and just
        after the record.  A fold calls ``callback(shard_name, None, state,
        entries=entries)`` with the shard's whole index as written and the
        fresh journal's state.  The library holds the callback weakly, so
        an observer that refers back to the library forms no reference
        cycle, and it stays behind at pickle boundaries.
        """
        self._observer = weakref.WeakMethod(callback)

    def _bump(self, **deltas: int) -> None:
        """Add ``deltas`` to the named lifetime counters, atomically."""
        with self._counter_lock:
            for counter, delta in deltas.items():
                setattr(self, counter, getattr(self, counter) + delta)

    def shard_names(self) -> list:
        """Prefixes of the existing shard directories, sorted."""
        with os.scandir(self.directory) as found:
            return sorted(
                entry.name
                for entry in found
                if len(entry.name) == self.prefix_len and entry.is_dir()
            )

    def shard_dirs(self) -> list:
        """Existing shard directories, sorted by prefix."""
        return [self.directory / name for name in self.shard_names()]

    # -- migration -------------------------------------------------------------
    def _migrate_flat_layout(self) -> None:
        """Adopt a legacy flat directory (``*.pulse`` files in the root).

        Runs under the global lock so exactly one process performs each
        move; ``os.replace`` keeps every payload bit-identical.  Racing
        processes simply find nothing left to migrate.
        """
        flat = [p for p in self.directory.glob(f"*{self.suffix}") if p.is_file()]
        if not flat:
            return
        with self._global_lock:
            self._migrate_locked()

    def _migrate_locked(self) -> None:
        """Migration body; caller must hold the global lock.

        Moves are grouped by destination shard so each shard's manifest is
        folded once, not once per file — a paper-scale flat directory
        migrates in O(entries), not O(entries²/shards).
        """
        by_shard: dict = {}
        for path in sorted(self.directory.glob(f"*{self.suffix}")):
            if path.is_file():
                by_shard.setdefault(self.shard_name(path.name), []).append(path)
        for shard_name, paths in by_shard.items():
            shard = self.directory / shard_name
            shard.mkdir(exist_ok=True)
            moved = {}
            for path in paths:
                try:
                    stat = path.stat()
                    os.replace(path, shard / path.name)
                except OSError:
                    # Another writer beat us or the file vanished; gc
                    # will reconcile whatever remains.
                    self._bump(index_errors=1)
                    continue
                moved[path.name] = entry_record(
                    stat.st_size, stat.st_mtime, stat.st_mtime
                )
            if moved:
                self._fold(shard, lambda manifest: manifest["entries"].update(moved))
            self._bump(migrated_entries=len(moved))

    # -- entry operations ------------------------------------------------------
    def put(
        self,
        name: str,
        payload: bytes,
        schema_version: int | None = None,
        meta: dict | None = None,
    ) -> None:
        """Store ``payload`` under ``name`` (overwrites) and index it.

        The data write is atomic and lock-free; the index update is one
        journal append.  Index failures are counted, not raised — the
        entry itself is durable either way.  ``meta`` is stored under the
        record's ``"target"`` key (the approximate-match metadata of
        :mod:`repro.library.neighbors`); an overwrite without ``meta``
        keeps whatever metadata and ``created`` stamp the previous record
        carried.
        """
        shard = self.shard_dir(name)
        path = shard / name
        try:
            replace_file(path, payload)
        except FileNotFoundError:
            # First write into this shard.
            shard.mkdir(exist_ok=True)
            replace_file(path, payload)
        self._bump(puts=1)
        record = {"name": name, "size": len(payload), "t": round(time.time(), 3)}
        if schema_version is not None:
            record["schema_version"] = int(schema_version)
        if isinstance(meta, dict):
            record["target"] = meta
        try:
            self._append(shard, record)
        except OSError:
            self._bump(index_errors=1)

    def get(self, name: str) -> bytes | None:
        """Read entry ``name``, bumping its LRU stamp on a hit.

        A missing entry is ``None``; any other read failure (permissions,
        I/O error) propagates as :class:`OSError` so callers can tell a
        cold miss from a broken store.
        """
        self._bump(gets=1)
        path = self.path_for(name)
        try:
            payload = read_file(path)
        except FileNotFoundError:
            # A not-yet-migrated flat file (e.g. written concurrently by an
            # old-layout process sharing the directory) still serves.
            path = self.directory / name
            try:
                payload = read_file(path)
            except FileNotFoundError:
                return None
        self._bump(get_hits=1)
        # The use is recorded as the file's mtime alone; gc reconciles it
        # into the index's last_used before evicting.
        now = time.time()
        try:
            os.utime(path, (now, now))
        except OSError:
            pass
        return payload

    def delete(self, name: str) -> bool:
        """Remove entry ``name``; returns whether a file was deleted."""
        path = self.path_for(name)
        shard = path.parent
        removed = False
        try:
            path.unlink()
            removed = True
        except OSError:
            pass
        if shard.is_dir():
            try:
                self._append(shard, {"name": name, "op": "del"})
            except OSError:
                self._bump(index_errors=1)
        return removed

    def __contains__(self, name: str) -> bool:
        return self.path_for(name).is_file()

    def names(self) -> list:
        """Every entry name currently on disk, sorted."""
        found = [p.name for p in self.directory.glob(f"*{self.suffix}")]
        for shard in self.shard_dirs():
            found.extend(p.name for p in shard.glob(f"*{self.suffix}"))
        return sorted(found)

    def count(self) -> int:
        """Number of entries on disk (data files are the source of truth)."""
        return len(self.names())

    # -- garbage collection ----------------------------------------------------
    def gc(self, budget_mb: float | None = None) -> GCReport:
        """Reconcile the index and evict LRU entries down to the budget.

        Without ``budget_mb`` the pass only reconciles and folds every
        shard's index and sweeps crash debris.  The whole pass runs under
        the global cross-process lock, so concurrent ``gc`` calls
        serialize; concurrent ``put``/``get`` traffic stays safe because
        data writes are atomic and each fold holds its journal's exclusive
        lock, which appends wait for.
        """
        start = time.perf_counter()
        report = GCReport(
            budget_bytes=None if budget_mb is None else int(budget_mb * 1024 * 1024)
        )

        def reconcile(shard: Path, manifest: dict) -> None:
            before = set(manifest["entries"])
            rebuild_entries(shard, manifest, self.suffix)
            report.ghosts_dropped += len(before - set(manifest["entries"]))
            report.orphans_adopted += len(set(manifest["entries"]) - before)

        def drop(shard: Path, names: list, manifest: dict) -> None:
            for name in names:
                manifest["entries"].pop(name, None)
            manifest["evictions"] = manifest.get("evictions", 0) + len(names)
            # A put racing the unlink above writes its file back; keep it.
            rebuild_entries(shard, manifest, self.suffix)

        with self._global_lock:
            self._migrate_locked()
            inventory: list = []  # (last_used, size, name, shard_dir)
            for shard in self.shard_dirs():
                manifest = self._fold(shard, partial(reconcile, shard))
                report.stale_tmp_removed += self._sweep_tmp(shard)
                for name, record in manifest["entries"].items():
                    # Reconciliation heals stamps above, but belt-and-braces:
                    # a record damaged between passes (hand-edited manifest,
                    # legacy migration) must not abort eviction mid-gc.
                    last_used = record.get("last_used")
                    if not isinstance(last_used, (int, float)) or isinstance(
                        last_used, bool
                    ):
                        last_used = 0.0
                    size = record.get("size")
                    if not isinstance(size, (int, float)) or isinstance(size, bool):
                        size = 0
                    inventory.append((last_used, size, name, shard))
            report.stale_tmp_removed += self._sweep_tmp(self.directory)
            report.entries_before = len(inventory)
            report.bytes_before = sum(size for _, size, _, _ in inventory)
            total = report.bytes_before
            if report.budget_bytes is not None and total > report.budget_bytes:
                inventory.sort()  # oldest last_used first
                evicted: dict = {}  # shard -> names
                for last_used, size, name, shard in inventory:
                    if total <= report.budget_bytes:
                        break
                    try:
                        (shard / name).unlink()
                    except OSError:
                        continue
                    evicted.setdefault(shard, []).append(name)
                    total -= size
                    report.evicted += 1
                    report.bytes_freed += size
                    report.evicted_names.append(name)
                for shard, names in evicted.items():
                    # The fold replays appends made since the first one, so
                    # entries that appeared meanwhile survive.
                    self._fold(shard, partial(drop, shard, names))
            report.entries_after = report.entries_before - report.evicted
            report.bytes_after = report.bytes_before - report.bytes_freed
        report.wall_time_s = time.perf_counter() - start
        return report

    def _sweep_tmp(self, directory: Path) -> int:
        """Remove crash-debris temp files that are clearly not in flight."""
        removed = 0
        cutoff = time.time() - _STALE_TMP_SECONDS
        for tmp in directory.glob(".*.tmp"):
            try:
                if tmp.stat().st_mtime < cutoff:
                    tmp.unlink()
                    removed += 1
            except OSError:
                pass
        return removed

    # The counter lock and the observer stay behind at pickle boundaries;
    # everything else — paths, layout, counters — travels.
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_counter_lock"]
        state["_observer"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._counter_lock = threading.Lock()

    # -- telemetry -------------------------------------------------------------
    @staticmethod
    def empty_stats(directory: str | os.PathLike) -> dict:
        """The ``{**stats(), **sweep()}`` report of a never-created library.

        Lets inspection surfaces (``library stats``)
        report a zeroed snapshot with the exact same schema as a live
        library, without creating the directory as instantiation would.
        """
        return {
            "directory": str(directory),
            "layout_version": LIBRARY_LAYOUT_VERSION,
            "shards": 0,
            "prefix_len": 0,
            "entries": 0,
            "indexed_entries": 0,
            "total_bytes": 0,
            "index_bytes": 0,
            "nonempty_shards": 0,
            "max_shard_entries": 0,
            "evictions": 0,
            "migrated_entries": 0,
            "puts": 0,
            "gets": 0,
            "get_hits": 0,
            "index_errors": 0,
        }

    def stats(self) -> dict:
        """Layout and lifetime counters: in memory only, no file I/O."""
        with self._counter_lock:
            counters = {
                "migrated_entries": self.migrated_entries,
                "puts": self.puts,
                "gets": self.gets,
                "get_hits": self.get_hits,
                "index_errors": self.index_errors,
            }
        return {
            "directory": str(self.directory),
            "layout_version": LIBRARY_LAYOUT_VERSION,
            "shards": self.shards,
            "prefix_len": self.prefix_len,
            **counters,
        }

    def sweep(self) -> dict:
        """Inventory the library on disk in one pass over every shard.

        ``entries`` and ``total_bytes`` count the data files (the source of
        truth); ``indexed_entries``, occupancy and ``evictions`` come from
        the manifests with their journals replayed, and ``index_bytes``
        counts both files.  The cost grows with the library, so only inspection
        surfaces call it — ``CompilationService.stats()`` and the CLI —
        never a request.
        """
        entries = total_bytes = index_bytes = indexed = evictions = 0
        occupancy = []
        for shard in [self.directory, *self.shard_dirs()]:
            for path in shard.glob(f"*{self.suffix}"):
                try:
                    total_bytes += path.stat().st_size
                except OSError:
                    continue
                entries += 1
            if shard == self.directory:
                continue  # un-migrated flat entries have no manifest
            manifest = load_manifest(shard)
            count = len(manifest["entries"])
            indexed += count
            evictions += manifest.get("evictions", 0)
            if count:
                occupancy.append(count)
            for filename in (MANIFEST_FILENAME, JOURNAL_FILENAME):
                try:
                    index_bytes += (shard / filename).stat().st_size
                except OSError:
                    pass
        return {
            "entries": entries,
            "indexed_entries": indexed,
            "total_bytes": total_bytes,
            "index_bytes": index_bytes,
            "nonempty_shards": len(occupancy),
            "max_shard_entries": max(occupancy, default=0),
            "evictions": evictions,
        }

    def __repr__(self) -> str:
        return (
            f"PulseLibrary({str(self.directory)!r}, shards={self.shards}, "
            f"entries={self.count()})"
        )
