"""Approximate-match retrieval over the pulse library.

The sharded :class:`~repro.library.store.PulseLibrary` is an *exact*
fingerprint store: a block whose unitary differs in the tenth decimal from
a cached one misses and pays the full GRAPE bill.  This module turns the
same shard indexes into an approximate-match index so near-miss blocks
can *seed* GRAPE from the closest cached pulse instead of starting cold.

Per-entry target metadata
-------------------------
Writers attach a ``"target"`` record to each index entry at ``put``
time (see :func:`target_metadata`):

.. code-block:: json

    "abcdef…-0123….pulse": {
      "size": 18432, "created": …, "last_used": …,
      "target": {"dim": 4, "ctx": "9f…16 hex…", "sig": "<base64 float32>"}
    }

``dim`` is the target unitary's dimension, ``ctx`` the 16-hex digest of
the physical-context tuple (identical to the context half of the cache
filename, so entries compiled under a different time step / fidelity
target / channel layout can never be confused), and ``sig`` the
phase-canonicalized unitary itself, serialized as interleaved
little-endian float32 — compact enough to live in the JSON index, precise
enough (~1e-7) for distance ranking.

Legacy entries written before this metadata existed are *healed lazily*:
the target unitary cannot be recovered from a fingerprint hash, so healing
happens at cache-hit time, when the caller holds the target anyway
(:meth:`NeighborIndex.annotate`).

Distance
--------
:func:`signature_distance` is the phase-invariant trace distance

    ``d(U, V) = sqrt(max(0, 1 - |tr(U† V)| / dim))  ∈ [0, 1]``

— 0 for unitaries equal up to global phase, 1 for trace-orthogonal ones.
It is monotone in the GRAPE overlap infidelity, so "nearest cached pulse"
means "pulse whose replay comes closest to the new target".

Search is bucketed by ``(dim, ctx)`` and threshold-gated
(:data:`repro.core.compiler.WARM_START_MAX_DIST`): a match farther than
the threshold is worse than no seed at all; equal distances go to the
smallest name.

Ranking
-------
Both warm-start tiers — this index and the in-memory
:class:`~repro.core.cache.PulseCache` — rank a bucket through one
:class:`TargetStack`: the bucket's targets as the rows of one growing
matrix, in arrival order.  One matrix–vector product gives every
candidate's approximate residual ``1 - |tr(U†V)|/dim``.  It only
shortlists: a batched product is not bit-equal to :func:`numpy.vdot`, so
every row within :data:`RECHECK_TOL` of the best residual is re-ranked
with the exact :func:`signature_distance`, in row order, and the
threshold is applied to the exact value; equal distances go to the
first row in memory and to the smallest name here.  The chosen seed and
its reported distance are therefore exactly those of a scalar scan.  The
``grape.warm_start.ranked`` / ``.rechecked`` counters show how many rows
each pass ranked and rechecked.

Keeping the index current
-------------------------
The parsed index lives in memory and is maintained incrementally, so a
lookup costs the same whatever the library's size:

* writes made through the owning library object (puts, overwrites,
  annotations, deletes, ``gc``) are applied as they happen
  (:meth:`~repro.library.store.PulseLibrary.observe`): an append's one
  record adds, moves or removes one row, and touches no other bucket;
  a fold hands over the shard's whole index;
* writes by other processes or library objects are found by
  :meth:`NeighborIndex.sync`, which calls ``stat`` on every shard's
  journal, and for those whose identity ``(st_ino, st_mtime_ns,
  st_size)`` moved since the index last read or wrote them, reads the
  bytes appended since — or the whole shard, once a fold has started a
  new journal generation.  It runs at the outermost
  :meth:`~NeighborIndex.freeze` and on every unfrozen lookup; a frozen
  lookup never touches the disk.

Staleness only costs a missed seed, never a wrong pulse, because seeds
are re-optimized and best-of guarded.
"""

from __future__ import annotations

import base64
import hashlib
import os
import threading
from dataclasses import dataclass

import numpy as np

from repro.library.manifest import (
    apply_record,
    journal_identity,
    load_manifest,
    read_manifest,
)
from repro.perf import get_perf_registry

__all__ = [
    "NeighborHit",
    "NeighborIndex",
    "RECHECK_TOL",
    "TargetStack",
    "context_token",
    "decode_signature",
    "encode_signature",
    "signature_distance",
    "target_metadata",
]


def context_token(context: tuple) -> str:
    """16-hex digest of a physical-context tuple.

    Matches the context half of the persistent cache's filenames
    (:func:`repro.core.cache._key_filename`), so one token identifies the
    same compilation context in both the exact store and this index.
    """
    return hashlib.sha256(repr(context).encode()).hexdigest()[:16]


def _canonical_phase(u: np.ndarray) -> np.ndarray:
    """Rotate ``u`` so its largest-magnitude entry is real-positive.

    The same canonicalization as :func:`repro.core.cache.unitary_fingerprint`
    — signatures of phase-equivalent unitaries serialize identically.
    """
    u = np.asarray(u, dtype=complex)
    flat = u.ravel()
    pivot = flat[np.argmax(np.abs(flat))]
    if np.abs(pivot) > 1e-12:
        u = u * (np.abs(pivot) / pivot)
    return u


def encode_signature(unitary: np.ndarray) -> str:
    """Serialize a unitary as base64 interleaved little-endian float32."""
    u = _canonical_phase(unitary)
    interleaved = np.empty(u.size * 2, dtype="<f4")
    interleaved[0::2] = u.real.ravel()
    interleaved[1::2] = u.imag.ravel()
    return base64.b64encode(interleaved.tobytes()).decode("ascii")


def decode_signature(text: str) -> np.ndarray | None:
    """Inverse of :func:`encode_signature`; ``None`` for damaged payloads."""
    try:
        raw = np.frombuffer(base64.b64decode(text.encode("ascii")), dtype="<f4")
    except (ValueError, AttributeError):
        return None
    if raw.size % 2:
        return None
    dim = round(np.sqrt(raw.size / 2))
    if dim < 1 or 2 * dim * dim != raw.size:
        return None
    u = raw[0::2].astype(float) + 1j * raw[1::2].astype(float)
    return u.reshape(dim, dim)


def signature_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Phase-invariant trace distance ``sqrt(max(0, 1 - |tr(U†V)|/dim))``."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    dim = u.shape[0]
    overlap = abs(np.vdot(u, v)) / dim  # vdot(U, V) = tr(U† V)
    return float(np.sqrt(max(0.0, 1.0 - overlap)))


#: Approximate residuals within this of the best are recomputed exactly.
#: A batched overlap differs from ``np.vdot`` by at most about
#: ``dim² · eps`` in the residual (below 1e-12 for 4 qutrits), and the
#: residual — not the distance, whose square root magnifies errors near
#: 0 — is where the shortlist is cut.
RECHECK_TOL = 1e-9


class TargetStack:
    """The targets of one ``(context, dim)`` bucket, stacked for ranking.

    Rows keep the order names were first added.  Ties go to the earliest
    of equally distant rows, or, with ``by_name``, to the smallest name.
    Adding a known name replaces its target in place.  Removing a name
    leaves a dead row, which re-adding the name revives, so row numbers
    never move and a frozen row count stays valid until :meth:`compact`.
    Each add writes its row of a growing conjugate buffer, so a lookup
    never re-stacks the bucket; the original arrays are kept beside it, so
    the exact recheck scores the very arrays a scalar scan would.
    """

    def __init__(self, dim: int, by_name: bool = False):
        self.dim = int(dim)
        self.by_name = by_name
        self.names: list = []
        self.targets: list = []
        self._rows: dict = {}
        self._dead: set = set()
        self._conj = np.empty((0, self.dim * self.dim), dtype=complex)

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name) -> bool:
        row = self._rows.get(name)
        return row is not None and row not in self._dead

    @property
    def live(self) -> int:
        """Rows that are not dead."""
        return len(self.names) - len(self._dead)

    @property
    def dead(self) -> int:
        return len(self._dead)

    def add(self, name, target: np.ndarray) -> None:
        row = self._rows.get(name)
        if row is None:
            row = self._rows[name] = len(self.names)
            self.names.append(name)
            self.targets.append(target)
            if row == len(self._conj):
                grown = np.empty((max(8, 2 * row), self._conj.shape[1]), dtype=complex)
                grown[:row] = self._conj
                self._conj = grown
        else:
            self.targets[row] = target
            self._dead.discard(row)
        np.conjugate(target.reshape(-1), out=self._conj[row])

    def remove(self, name) -> None:
        row = self._rows.get(name)
        if row is not None:
            self._dead.add(row)

    def compact(self) -> None:
        """Drop the dead rows; the live ones keep their order."""
        keep = [row for row in range(len(self.names)) if row not in self._dead]
        self.names = [self.names[row] for row in keep]
        self.targets = [self.targets[row] for row in keep]
        self._rows = {name: row for row, name in enumerate(self.names)}
        self._conj = self._conj[keep]
        self._dead = set()

    def nearest(
        self,
        target: np.ndarray,
        max_dist: float,
        count: int | None = None,
        exclude=None,
    ) -> tuple | None:
        """``(row, exact distance)`` of the nearest live row among the first
        ``count`` (all when ``None``) within ``max_dist``, skipping the row
        named ``exclude``; ``None`` when none is close enough.

        Equal to a scalar scan of those rows in order that keeps the first
        row of smallest :func:`signature_distance` (with ``by_name``, the
        smallest name among them; see the module docstring, "Ranking").
        """
        n = len(self.names) if count is None else min(count, len(self.names))
        if n == 0:
            return None
        residual = 1.0 - np.abs(self._conj[:n] @ target.ravel()) / self.dim
        for row in self._dead:
            if row < n:
                residual[row] = np.inf
        skip = self._rows.get(exclude)
        if skip is not None and skip < n:
            residual[skip] = np.inf
        best = residual.min()
        perf = get_perf_registry()
        perf.count("grape.warm_start.ranked", n)
        if not best <= max(max_dist, 0.0) ** 2 + RECHECK_TOL:
            return None
        shortlist = np.flatnonzero(residual <= best + RECHECK_TOL)
        perf.count("grape.warm_start.rechecked", len(shortlist))
        winner = None
        for row in shortlist:
            dist = signature_distance(target, self.targets[row])
            if dist > max_dist:
                continue
            if (
                winner is None
                or dist < winner[1]
                or (
                    self.by_name
                    and dist == winner[1]
                    and self.names[row] < self.names[winner[0]]
                )
            ):
                winner = (int(row), dist)
        return winner


def target_metadata(target: np.ndarray, context: tuple) -> dict:
    """The per-entry ``"target"`` manifest record for one cached pulse."""
    target = np.asarray(target, dtype=complex)
    return {
        "dim": int(target.shape[0]),
        "ctx": context_token(context),
        "sig": encode_signature(target),
    }


@dataclass(frozen=True)
class NeighborHit:
    """The nearest cached pulse found for a target, with its distance."""

    name: str
    distance: float


def _valid_meta(meta) -> bool:
    return (
        isinstance(meta, dict)
        and isinstance(meta.get("dim"), int)
        and isinstance(meta.get("ctx"), str)
        and isinstance(meta.get("sig"), str)
    )


class NeighborIndex:
    """In-memory ``(dim, ctx)``-bucketed view of a library's target metadata.

    Thread-safe; one index per :class:`PulseLibrary`.  The index observes
    its library, so this process's own journal records land as they are
    written, and :meth:`sync` reads only what other writers appended (see
    the module docstring).  An unpickled copy starts empty and builds its
    scan on its first lookup, frozen or not.
    """

    def __init__(self, library):
        self.library = library
        self._lock = threading.Lock()
        self._buckets: dict = {}  # (dim, ctx) -> {name: sig string}
        self._shards: dict = {}  # shard name -> its index entries, replayed
        self._keys: dict = {}  # name -> (dim, ctx) of its valid metadata
        self._seen: dict = {}  # shard name -> JournalState applied
        self._stacks: dict = {}  # (dim, ctx) -> TargetStack, rows by arrival
        # While frozen, search sees only the rows each stack had at freeze
        # time (depth-counted; see PulseCache.freeze_neighbors for why).
        self._frozen: dict | None = None
        self._frozen_depth = 0
        # A pickled freeze: the names the copy's first sync pins (see _pin).
        self._pinned: set | None = None
        self._synced = False
        self.lookups = 0
        self.hits = 0
        self.annotated = 0
        self.shard_reads = 0
        library.observe(self._observe)

    # The lock stays behind at pickle boundaries (a pickled cache carries
    # its index along); the receiving process rebuilds its own scan
    # lazily.  A frozen index sends its frozen names, not its row counts:
    # the copy's rows arrive in another order.
    def __getstate__(self) -> dict:
        with self._lock:
            state = self.__dict__.copy()
            if self._frozen is not None:
                state["_pinned"] = {
                    name
                    for key, count in self._frozen.items()
                    for name in self._stacks[key].names[:count]
                    if name in self._stacks[key]
                }
        del state["_lock"]
        for name in ("_buckets", "_shards", "_keys", "_seen", "_stacks"):
            state[name] = {}
        state.update(_frozen=None, _synced=False)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()
        self.library.observe(self._observe)

    # -- keeping current (call with the lock held) ----------------------------
    def _set(self, name: str, meta) -> None:
        """Make ``meta`` (``None``: no valid metadata) ``name``'s target."""
        key = (meta["dim"], meta["ctx"]) if _valid_meta(meta) else None
        old = self._keys.get(name)
        if old is not None:
            bucket = self._buckets[old]
            if old == key and bucket[name] == meta["sig"]:
                return
            del bucket[name]
            if not bucket:
                del self._buckets[old]
            if old != key:
                self._unstack(old, name)
        if key is None:
            self._keys.pop(name, None)
            return
        self._keys[name] = key
        self._buckets.setdefault(key, {})[name] = meta["sig"]
        sig = decode_signature(meta["sig"])
        if sig is None or sig.shape != (key[0], key[0]):
            self._unstack(key, name)  # a damaged signature ranks nowhere
            return
        stack = self._stacks.get(key)
        if stack is None:
            stack = self._stacks[key] = TargetStack(key[0], by_name=True)
        stack.add(name, sig)  # a known name keeps its row

    def _unstack(self, key: tuple, name: str) -> None:
        """Take ``name``'s row out of ranking; while unfrozen, compact a
        stack that is mostly dead rows and drop an empty one."""
        stack = self._stacks.get(key)
        if stack is None or name not in stack:
            return
        stack.remove(name)
        if self._frozen is None:
            if not stack.live:
                del self._stacks[key]
            elif 2 * stack.dead > len(stack):
                stack.compact()

    def _index(self, entries: dict, name: str) -> None:
        record = entries.get(name)
        self._set(name, record.get("target") if isinstance(record, dict) else None)

    def _apply(self, shard: str, record) -> None:
        """Replay one journal record on the shard's entries
        (:func:`~repro.library.manifest.apply_record`) and re-index its
        name."""
        entries = self._shards.setdefault(shard, {})
        apply_record(entries, record)
        if isinstance(record, dict) and isinstance(record.get("name"), str):
            self._index(entries, record["name"])

    def _replace(self, shard: str, entries: dict) -> None:
        """Make ``entries`` (one shard's whole index) that shard's part."""
        for name in self._shards.get(shard, {}).keys() - entries.keys():
            self._set(name, None)
        # A copy: the caller may still read the dict it passed.
        entries = self._shards[shard] = dict(entries)
        for name in entries:
            self._index(entries, name)

    def _observe(
        self, shard: str, since, state, records=(), entries: dict | None = None
    ) -> None:
        """Apply a write the owning library just made (see
        :meth:`~repro.library.store.PulseLibrary.observe`).

        An append lands only when it directly follows what this index has
        read (``since``); otherwise the next :meth:`sync` reads it from the
        journal, in order.  A fold (``entries``) replaces the shard unless
        this index has already read past it.
        """
        with self._lock:
            seen = self._seen.get(shard)
            if entries is not None:
                if seen is not None and seen.gen == state.gen:
                    if seen.offset >= state.offset:
                        return  # a sync already read past this fold
                self._replace(shard, entries)
            elif seen is None or seen[:2] != since[:2]:
                return
            for record in records:
                self._apply(shard, record)
            self._seen[shard] = state

    def sync(self) -> int:
        """Read what other writers appended to each shard's journal since
        this index last read or wrote it; returns how many shards were
        read."""
        root = self.library.directory
        on_disk = {
            shard: journal_identity(os.path.join(root, shard))
            for shard in self.library.shard_names()
        }
        with self._lock:
            stale = {
                shard: self._seen.get(shard)
                for shard, identity in on_disk.items()
                if shard not in self._seen or self._seen[shard].identity != identity
            }
            for shard in [s for s in self._shards if s not in on_disk]:
                self._replace(shard, {})
                del self._shards[shard]
                self._seen.pop(shard, None)
        for shard, since in stale.items():
            manifest, records, state = read_manifest(root / shard, since)
            with self._lock:
                # A write applied meanwhile is newer than this read; the
                # next sync reads again from where that write left off.
                if self._seen.get(shard) != since:
                    continue
                if manifest is not None:
                    self._replace(shard, manifest["entries"])
                for record in records:
                    self._apply(shard, record)
                self._seen[shard] = state
        with self._lock:
            self.shard_reads += len(stale)
            self._synced = True
            if self._pinned is not None:
                self._pin(self._pinned)
                self._pinned = None
        return len(stale)

    def _pin(self, names: set) -> None:
        """Freeze at exactly ``names``: each stack is rebuilt with those
        names' rows first, and they become its frozen rows.  Row order is
        free to change because ties go by name.  Call with the lock held."""
        self._frozen = {}
        for key, stack in list(self._stacks.items()):
            live = [name for name in stack.names if name in stack]
            rebuilt = TargetStack(stack.dim, by_name=True)
            for name in sorted(live, key=lambda name: name not in names):
                rebuilt.add(name, stack.targets[stack._rows[name]])
            self._stacks[key] = rebuilt
            self._frozen[key] = sum(name in names for name in live)

    # -- freeze ----------------------------------------------------------------
    def freeze(self) -> None:
        """Pin search to the rows indexed right now.

        The outermost freeze syncs first, so it sees other writers' entries
        too.  Rows added later stay out of search until the outermost
        :meth:`thaw`; a row removed meanwhile drops out at once.
        """
        with self._lock:
            outermost = self._frozen is None
        if outermost:
            self.sync()
        with self._lock:
            self._frozen_depth += 1
            if self._frozen is None:
                self._frozen = {key: len(stack) for key, stack in self._stacks.items()}

    def thaw(self) -> None:
        """Undo one :meth:`freeze` (outermost thaw unpins)."""
        with self._lock:
            self._frozen_depth = max(0, self._frozen_depth - 1)
            if self._frozen_depth == 0:
                self._frozen = None

    # -- search ----------------------------------------------------------------
    def find_nearest(
        self,
        target: np.ndarray,
        context: tuple,
        max_dist: float,
        exclude: str | None = None,
    ) -> NeighborHit | None:
        """The cached pulse nearest ``target`` within its ``(dim, ctx)`` bucket.

        ``exclude`` names the entry an exact lookup already missed (the
        would-be filename of this very key), so an entry can never seed
        itself.  Returns ``None`` when the bucket is empty or the best
        distance exceeds ``max_dist``; equal distances go to the smallest
        name.  Syncs first unless frozen (and already built).
        """
        with self._lock:
            needs_sync = not self._synced or self._frozen is None
        if needs_sync:
            self.sync()
        target = np.asarray(target, dtype=complex)
        key = (int(target.shape[0]), context_token(context))
        with self._lock:
            self.lookups += 1
            stack = self._stacks.get(key)
            if stack is None:
                return None
            count = None if self._frozen is None else self._frozen.get(key, 0)
            found = stack.nearest(target, max_dist, count=count, exclude=exclude)
            if found is None:
                return None
            self.hits += 1
            return NeighborHit(name=stack.names[found[0]], distance=found[1])

    # -- lazy healing ----------------------------------------------------------
    def annotate(self, name: str, target: np.ndarray, context: tuple) -> bool:
        """Heal a legacy entry's missing target metadata in its index.

        Called at cache-hit time, when the caller holds the target unitary
        that hashing threw away.  A no-op (``False``) when the entry is
        already annotated — known to this index, with no file read — or has
        no index record; on success the one appended record reaches this
        index in place, with no rescan.
        """
        with self._lock:
            if name in self._keys:
                return False
        shard = self.library.shard_dir(name)
        try:
            record = load_manifest(shard)["entries"].get(name)
            if not isinstance(record, dict) or _valid_meta(record.get("target")):
                return False
            meta = target_metadata(target, context)
            self.library._append(shard, {"name": name, "op": "target", "target": meta})
        except OSError:
            return False
        with self._lock:
            self.annotated += 1
        return True

    # -- telemetry -------------------------------------------------------------
    def stats(self) -> dict:
        with self._lock:
            return {
                "buckets": len(self._buckets),
                "indexed_entries": sum(
                    len(b) for b in self._buckets.values()
                ),
                "lookups": self.lookups,
                "hits": self.hits,
                "annotated": self.annotated,
                "shard_reads": self.shard_reads,
            }
