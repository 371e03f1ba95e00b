"""Approximate-match retrieval over the pulse library.

The sharded :class:`~repro.library.store.PulseLibrary` is an *exact*
fingerprint store: a block whose unitary differs in the tenth decimal from
a cached one misses and pays the full GRAPE bill.  This module turns the
same manifests into an approximate-match index so near-miss blocks can
*seed* GRAPE from the closest cached pulse instead of starting cold.

Per-entry target metadata
-------------------------
Writers attach a ``"target"`` record to each manifest entry at ``put``
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
(``REPRO_WARM_START_MAX_DIST``): a match farther than the threshold is
worse than no seed at all; equal distances go to the smallest name.

Keeping the index current
-------------------------
The parsed index lives in memory and is maintained incrementally, so a
lookup costs the same whatever the library's size:

* writes made through the owning library object (puts, overwrites, LRU
  stamps, annotations, deletes, ``gc``) are applied as they happen: the
  written shard is re-indexed from the manifest just written, with no
  re-read (:meth:`~repro.library.store.PulseLibrary.observe`);
* writes by other processes or library objects are found by
  :meth:`NeighborIndex.sync`, which calls ``stat`` on every shard manifest
  and re-reads only those whose identity ``(st_ino, st_mtime_ns, st_size)``
  moved since the index last read or wrote them.  It runs at the
  outermost :meth:`~NeighborIndex.freeze` and on every unfrozen lookup; a
  frozen lookup never touches the disk.

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
    load_manifest,
    manifest_identity,
    read_manifest,
)

__all__ = [
    "NeighborHit",
    "NeighborIndex",
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
    its library, so this process's own manifest writes land in place, and
    :meth:`sync` re-reads only the shards another writer changed (see the
    module docstring).  An unpickled copy starts empty and builds its scan
    on its first lookup, frozen or not.
    """

    def __init__(self, library):
        self.library = library
        self._lock = threading.Lock()
        self._buckets: dict = {}  # (dim, ctx) -> {name: sig string}
        self._shards: dict = {}  # shard name -> {name: ((dim, ctx), sig)}
        self._seen: dict = {}  # shard name -> identity last read or written
        self._versions: dict = {}  # shard name -> updates applied (see sync)
        self._decoded: dict = {}  # name -> (sig string, np.ndarray)
        self._synced = False
        # While frozen, search sees only the names captured at freeze
        # time (depth-counted; see PulseCache.freeze_neighbors for why).
        self._frozen_depth = 0
        self._frozen_names: set | None = None
        self.lookups = 0
        self.hits = 0
        self.annotated = 0
        self.shard_reads = 0
        library.observe(self._replace)

    # The lock stays behind at pickle boundaries (the process-pool block
    # executor ships compilers, cache and index included); workers rebuild
    # their own scan lazily.
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_lock"]
        for name in ("_buckets", "_shards", "_seen", "_versions", "_decoded"):
            state[name] = {}
        state["_synced"] = False
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()
        self.library.observe(self._replace)

    # -- keeping current -------------------------------------------------------
    def _replace(
        self, shard: str, entries: dict, identity, version: int | None = None
    ) -> None:
        """Make ``entries`` (one shard's manifest, read or written at
        ``identity``) that shard's whole contribution to the index.

        The owning library calls this after every manifest it writes (see
        :meth:`~repro.library.store.PulseLibrary.observe`).  :meth:`sync`
        passes the shard ``version`` it saw before reading; if
        a library write was applied since, that write is newer and the
        read is dropped.
        """
        fresh = {}
        for name, record in entries.items():
            meta = record.get("target") if isinstance(record, dict) else None
            if _valid_meta(meta):
                fresh[name] = ((meta["dim"], meta["ctx"]), meta["sig"])
        with self._lock:
            current = self._versions.get(shard, 0)
            if version is not None and version != current:
                return
            self._versions[shard] = current + 1
            self._seen[shard] = identity
            for name, (key, _sig) in self._shards.pop(shard, {}).items():
                bucket = self._buckets[key]
                del bucket[name]
                if not bucket:
                    del self._buckets[key]
                if name not in fresh:
                    self._decoded.pop(name, None)
            for name, (key, sig) in fresh.items():
                self._buckets.setdefault(key, {})[name] = sig
            self._shards[shard] = fresh

    def sync(self) -> int:
        """Re-read the shards whose manifest changed since this index last
        read or wrote it; returns how many shards were read."""
        root = self.library.directory
        on_disk = {
            shard: manifest_identity(os.path.join(root, shard))
            for shard in self.library.shard_names()
        }
        with self._lock:
            stale = {
                shard: self._versions.get(shard, 0)
                for shard, identity in on_disk.items()
                if self._seen.get(shard) != identity
            }
            gone = [shard for shard in self._shards if shard not in on_disk]
        for shard in gone:
            self._replace(shard, {}, None)
        for shard, version in stale.items():
            manifest, identity = read_manifest(self.library.directory / shard)
            self._replace(shard, manifest["entries"], identity, version)
        with self._lock:
            self.shard_reads += len(stale)
            self._synced = True
        return len(stale)

    # -- freeze ----------------------------------------------------------------
    def freeze(self) -> None:
        """Pin search to the entries annotated right now.

        The outermost freeze syncs first, so it sees other writers' entries
        too.  The frozen-name snapshot — not the bucket dicts — is what
        pickles across to process-pool workers, so a worker that builds its
        own scan mid-pass still resolves exactly the pre-pass candidate set.
        """
        with self._lock:
            outermost = self._frozen_names is None
        if outermost:
            self.sync()
        with self._lock:
            self._frozen_depth += 1
            if self._frozen_names is None:
                self._frozen_names = {
                    name
                    for bucket in self._buckets.values()
                    for name in bucket
                }

    def thaw(self) -> None:
        """Undo one :meth:`freeze` (outermost thaw unpins)."""
        with self._lock:
            self._frozen_depth = max(0, self._frozen_depth - 1)
            if self._frozen_depth == 0:
                self._frozen_names = None

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
            needs_sync = not self._synced or self._frozen_names is None
        if needs_sync:
            self.sync()
        target = np.asarray(target, dtype=complex)
        bucket_key = (int(target.shape[0]), context_token(context))
        with self._lock:
            self.lookups += 1
            frozen = self._frozen_names
            candidates = [
                (name, sig_text, self._decoded.get(name))
                for name, sig_text in self._buckets.get(bucket_key, {}).items()
                if name != exclude and (frozen is None or name in frozen)
            ]
        best = None  # (distance, name)
        for name, sig_text, decoded in candidates:
            if decoded is not None and decoded[0] == sig_text:
                sig = decoded[1]
            else:
                sig = decode_signature(sig_text)
                if sig is None or sig.shape[0] != target.shape[0]:
                    continue
                with self._lock:
                    self._decoded[name] = (sig_text, sig)
            candidate = (signature_distance(target, sig), name)
            if best is None or candidate < best:
                best = candidate
        if best is None or best[0] > max_dist:
            return None
        with self._lock:
            self.hits += 1
        return NeighborHit(name=best[1], distance=best[0])

    # -- lazy healing ----------------------------------------------------------
    def annotate(self, name: str, target: np.ndarray, context: tuple) -> bool:
        """Heal a legacy entry's missing target metadata in its manifest.

        Called at cache-hit time, when the caller holds the target unitary
        that hashing threw away.  A no-op (``False``) when the entry is
        already annotated or has no manifest record; on success the
        manifest write reaches this index in place — no rescan needed.
        """
        meta = target_metadata(target, context)
        shard = self.library.shard_dir(name)
        if not shard.is_dir():
            return False
        try:
            with self.library._shard_lock(shard):
                manifest = load_manifest(shard)
                record = manifest["entries"].get(name)
                if not isinstance(record, dict) or _valid_meta(
                    record.get("target")
                ):
                    return False
                record["target"] = meta
                self.library._write_manifest(shard, manifest)
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
