"""Pulse cache keyed by block unitary.

Variational circuits are extremely repetitive — UCCSD repeats the same CX
ladders and basis changes hundreds of times — so GRAPE results are cached by
a phase-canonical hash of the target unitary plus the physical context
(channel layout, time step, fidelity target).  Strict partial compilation's
"zero runtime latency" and the tractability of the benchmark harness both
rest on this cache.

Two backends are provided:

* :class:`PulseCache` — in-memory, thread-safe, with hit/miss/timing
  telemetry.  This is the seed behavior and remains the default.
* :class:`PersistentPulseCache` — additionally mirrors every entry into a
  sharded on-disk :class:`repro.library.PulseLibrary`, fingerprint-keyed,
  so a *second process* (or a later session) starts warm.  Writes are
  atomic (temp file + ``os.replace``), which makes the directory safe
  under concurrent writers — including :mod:`repro.fleet` worker
  processes and other hosts sharing the directory over a network
  filesystem.  The library also carries the index, the LRU/budget
  ``gc()``, and the one-time migration of legacy flat directories.

The service picks the backend from its ``ServiceConfig.cache_dir``; every
other caller passes the cache it wants.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.pulse.device import ChannelLayout
from repro.pulse.hamiltonian import ControlSet
from repro.pulse.schedule import PulseSchedule
from repro.service.config import ServiceConfig
from repro.sim.unitary import circuit_unitary


def unitary_fingerprint(unitary: np.ndarray, decimals: int = 8) -> str:
    """A global-phase-invariant hash of a unitary.

    The matrix is rotated so its largest-magnitude entry is real-positive,
    rounded, and hashed; unitaries equal up to global phase collide (by
    design) and nothing else realistically does.
    """
    u = np.asarray(unitary, dtype=complex)
    flat = u.ravel()
    pivot = flat[np.argmax(np.abs(flat))]
    if np.abs(pivot) > 1e-12:
        u = u * (np.abs(pivot) / pivot)
    rounded = np.round(u, decimals)
    # Normalize signed zeros so -0.0 and 0.0 hash identically.
    rounded = rounded + (0.0 + 0.0j)
    return hashlib.sha256(rounded.tobytes()).hexdigest()


def control_context_key(
    layout: ControlSet | ChannelLayout, dt_ns: float, target_fidelity: float
) -> tuple:
    """The physical context under which a cached pulse remains valid.

    The key reads only the block's ``qubits``, ``levels`` and ``channels``,
    so ``layout`` is either a full :class:`ControlSet` or the device's
    operator-free :class:`~repro.pulse.device.ChannelLayout` for the same
    block (:meth:`~repro.pulse.device.GmonDevice.channel_layout`); both
    give the same key.
    """
    origin = layout.qubits[0]
    channels = tuple(
        (ch.kind, tuple(q - origin for q in ch.qubits), round(ch.max_amplitude, 9))
        for ch in layout.channels
    )
    return (layout.levels, channels, round(dt_ns, 9), round(target_fidelity, 9))


@dataclass
class CacheEntry:
    """One cached minimum-time GRAPE outcome for a block unitary."""

    schedule: PulseSchedule
    duration_ns: float
    fidelity: float
    converged: bool
    iterations: int


@dataclass
class NeighborMatch:
    """An approximate-match cache entry (the warm-start seed source).

    ``distance`` is the phase-invariant trace distance of
    :func:`repro.library.neighbors.signature_distance`; ``source`` records
    which tier found it (``"memory"`` or ``"library"``).
    """

    entry: CacheEntry
    distance: float
    name: str
    source: str


class PulseCache:
    """In-memory cache of minimum-time GRAPE results.

    Thread-safe: the pipeline's thread executor compiles independent blocks
    concurrently, and every block consults this cache.  Counters and the
    entry dict are guarded by one lock; lookup/store wall time is accumulated
    so cache overhead shows up in pipeline telemetry rather than hiding in
    GRAPE time.

    The cache also memoizes block fingerprints (:meth:`block_fingerprint`):
    an LRU of at most :attr:`key_memo_max` bound blocks, keyed on their
    exact content, counted in ``key_memo_*`` stats.
    """

    backend = "memory"
    #: Bound of the block-fingerprint memo.  An entry is two hex digests
    #: plus its LRU link (about 330 bytes), so a full memo is under 1.5 MB.
    key_memo_max = 4096

    def __init__(self):
        self._entries: dict = {}
        self._targets: dict = {}  # key -> target unitary (warm-start index)
        # While frozen, neighbor search sees only the keys present at
        # freeze time (see freeze_neighbors); depth-counted for nesting.
        self._frozen_depth = 0
        self._frozen_keys: set | None = None
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.lookup_time_s = 0.0
        self.store_time_s = 0.0
        # content fingerprint -> unitary fingerprint, LRU order.
        self._fingerprints: OrderedDict = OrderedDict()
        self.key_memo_hits = 0
        self.key_memo_misses = 0

    # The lock cannot cross process boundaries (a pickled block compiler
    # carries its cache); recreate it on unpickle.
    # The fingerprint memo stays behind too: job venues never re-key blocks.
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_lock"]
        state["_fingerprints"] = OrderedDict()
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def key(
        self,
        unitary: np.ndarray | str,
        layout: ControlSet | ChannelLayout,
        dt_ns: float,
        target_fidelity: float,
    ) -> tuple:
        """Cache key: phase-canonical unitary fingerprint + physical context.

        ``unitary`` is the target matrix or its precomputed
        :func:`unitary_fingerprint` (see :meth:`block_fingerprint`).
        """
        if not isinstance(unitary, str):
            unitary = unitary_fingerprint(unitary)
        return (unitary, control_context_key(layout, dt_ns, target_fidelity))

    def block_fingerprint(self, block: QuantumCircuit) -> str:
        """``unitary_fingerprint(circuit_unitary(block))``, memoized.

        The memo key is the block's exact
        :meth:`~repro.circuits.circuit.QuantumCircuit.content_fingerprint`
        (gate names, qubits, and angles to the last bit), which fixes the
        unitary, so a hit returns exactly what recomputing would.  Bounded
        LRU of ``key_memo_max`` entries; the unitary is built outside the
        lock.
        """
        content = block.content_fingerprint()
        with self._lock:
            fingerprint = self._fingerprints.get(content)
            if fingerprint is not None:
                self._fingerprints.move_to_end(content)
                self.key_memo_hits += 1
                return fingerprint
            self.key_memo_misses += 1
        fingerprint = unitary_fingerprint(circuit_unitary(block))
        with self._lock:
            self._fingerprints[content] = fingerprint
            while len(self._fingerprints) > self.key_memo_max:
                self._fingerprints.popitem(last=False)
        return fingerprint

    def get(self, key: tuple) -> CacheEntry | None:
        """Look up ``key``, counting the hit or miss."""
        start = time.perf_counter()
        with self._lock:
            entry = self._entries.get(key)
        from_disk = False
        if entry is None:
            # Slow-tier I/O happens outside the lock so concurrent block
            # threads don't serialize on the filesystem.
            entry = self._load_fallback(key)
            from_disk = entry is not None
        with self._lock:
            if entry is None:
                self.misses += 1
            else:
                self.hits += 1
                if from_disk:
                    self._entries[key] = entry
            self.lookup_time_s += time.perf_counter() - start
        return entry

    def put(
        self, key: tuple, entry: CacheEntry, target: np.ndarray | None = None
    ) -> None:
        """Store ``entry`` under ``key`` (overwrites).

        ``target`` — the block's target unitary — feeds the approximate-match
        warm-start index; hashing throws it away, so callers that hold it
        pass it along here.  ``None`` keeps the entry exact-match only.
        """
        start = time.perf_counter()
        with self._lock:
            self._entries[key] = entry
            if target is not None:
                self._targets[key] = np.asarray(target, dtype=complex)
        # Durable writes are atomic (temp + replace), so they need no lock.
        self._persist(key, entry, target)
        with self._lock:
            self.store_time_s += time.perf_counter() - start

    def annotate_target(self, key: tuple, target: np.ndarray) -> None:
        """Record the target unitary behind an already-cached ``key``.

        Called at cache-hit time: the caller holds the target the hash
        threw away, so the warm-start index learns it for free.  Subclasses
        extend this to heal their durable index too.
        """
        with self._lock:
            if key in self._entries and key not in self._targets:
                self._targets[key] = np.asarray(target, dtype=complex)

    def freeze_neighbors(self) -> None:
        """Pin neighbor search to the current cache contents.

        Dispatchers call this around a pass that compiles many blocks
        concurrently: sibling results land in the cache as they finish, at
        executor-dependent times, so without the pin a serial executor
        would warm-start later blocks from earlier siblings while a
        parallel one would not — and compiled pulses would depend on the
        executor.  Frozen, every block of the pass sees exactly the
        pre-pass candidates.  Nests (depth-counted); thaw with
        :meth:`thaw_neighbors` in a ``finally``.
        """
        with self._lock:
            self._frozen_depth += 1
            if self._frozen_keys is None:
                self._frozen_keys = set(self._targets)

    def thaw_neighbors(self) -> None:
        """Undo one :meth:`freeze_neighbors` (outermost thaw unpins)."""
        with self._lock:
            self._frozen_depth = max(0, self._frozen_depth - 1)
            if self._frozen_depth == 0:
                self._frozen_keys = None

    def find_neighbor(
        self, key: tuple, target: np.ndarray, max_dist: float
    ) -> NeighborMatch | None:
        """The nearest cached entry for ``target`` within ``max_dist``.

        Only entries whose physical context matches ``key``'s (and whose
        target unitary is known — see :meth:`put`'s ``target`` argument and
        :meth:`annotate_target`) are candidates; the exact ``key`` itself
        never matches.  Returns ``None`` when nothing is close enough.
        """
        from repro.library.neighbors import signature_distance

        target = np.asarray(target, dtype=complex)
        context = key[1]
        with self._lock:
            frozen = self._frozen_keys
            candidates = [
                (other, cached_target)
                for other, cached_target in self._targets.items()
                if other != key
                and other[1] == context
                and cached_target.shape == target.shape
                and (frozen is None or other in frozen)
            ]
        best: NeighborMatch | None = None
        for other, cached_target in candidates:
            dist = signature_distance(target, cached_target)
            if dist > max_dist:
                continue
            if best is None or dist < best.distance:
                with self._lock:
                    entry = self._entries.get(other)
                if entry is not None:
                    best = NeighborMatch(
                        entry=entry,
                        distance=dist,
                        name=_key_filename(other),
                        source="memory",
                    )
        return best

    def _load_fallback(self, key: tuple) -> CacheEntry | None:
        """Second-chance lookup for subclasses with a slower tier.

        Runs outside the cache lock; implementations must only touch their
        own thread-safe state.
        """
        return None

    def _persist(
        self, key: tuple, entry: CacheEntry, target: np.ndarray | None = None
    ) -> None:
        """Durable store hook for subclasses (runs outside the cache lock)."""

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when untouched)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self, sweep: bool = False) -> dict:
        """Telemetry snapshot: counts, rates, and time spent in the cache.

        Reads memory only.  ``sweep=True`` asks a disk-backed cache to add
        its on-disk inventory too; the memory cache has none.
        """
        return {
            "backend": self.backend,
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 4),
            "lookup_time_s": round(self.lookup_time_s, 6),
            "store_time_s": round(self.store_time_s, 6),
            "key_memo_hits": self.key_memo_hits,
            "key_memo_misses": self.key_memo_misses,
            "key_memo_size": len(self._fingerprints),
        }


#: Version tag embedded in every persisted cache entry.  Bump this whenever
#: the on-disk format (or the meaning of a :class:`CacheEntry` field)
#: changes: readers treat any other version as a graceful miss — counted in
#: ``schema_mismatches``, recomputed and overwritten in place — instead of
#: surfacing format drift as ``disk_errors``.  Version 1 is the original
#: bare-``CacheEntry`` pickle, which predates the tag.
CACHE_SCHEMA_VERSION = 2


def _key_filename(key: tuple) -> str:
    """Deterministic, collision-resistant filename for a cache key.

    The key is ``(unitary_fingerprint_hex, context_tuple)`` where the
    context is built from primitives with stable ``repr``; hashing that repr
    gives processes with different memory layouts the same filename.
    """
    fingerprint, context = key
    context_digest = hashlib.sha256(repr(context).encode()).hexdigest()[:16]
    return f"{fingerprint[:40]}-{context_digest}.pulse"


class PersistentPulseCache(PulseCache):
    """Pulse cache whose on-disk tier is a sharded pulse library.

    Every ``put`` pickles the entry into a
    :class:`repro.library.PulseLibrary` under ``directory`` next to keeping
    it in memory; a miss in memory falls through to the library (counted in
    ``disk_hits``), so a cold process pointed at a warm directory resumes
    with zero GRAPE work for previously seen blocks.  The library fans
    entries out across fingerprint-prefix shards, maintains per-shard JSON
    manifests (size/created/last-used), supports LRU eviction via
    :meth:`gc`, and transparently migrates legacy flat cache directories on
    first open — this class only handles the pickling and the schema tag.

    Entries carry a schema tag (:data:`CACHE_SCHEMA_VERSION`); payloads
    written by another format version are invalidated gracefully — a
    counted miss in ``schema_mismatches`` that GRAPE recomputes and
    overwrites — while genuinely unreadable payloads (truncated by a crash,
    foreign junk) are treated as misses and counted in ``disk_errors``.
    """

    backend = "disk"

    def __init__(
        self,
        directory: str | os.PathLike,
        shards: int = ServiceConfig.cache_shards,
        budget_mb: float | None = ServiceConfig.cache_budget_mb,
        prefetch: bool = ServiceConfig.prefetch,
    ):
        super().__init__()
        from repro.library import NeighborIndex, PulseLibrary

        self.library = PulseLibrary(
            directory, shards=shards, budget_mb=budget_mb, prefetch=prefetch
        )
        self.neighbors = NeighborIndex(self.library)
        self.directory = self.library.directory
        self.disk_hits = 0
        self.disk_errors = 0
        self.schema_mismatches = 0

    def _path(self, key: tuple) -> Path:
        return self.library.path_for(_key_filename(key))

    def _decode_entry(self, blob: bytes) -> CacheEntry | None:
        """Unpickle and schema-check one library payload (counted miss on
        damage or format drift)."""
        try:
            payload = pickle.loads(blob)
        except Exception:
            with self._lock:
                self.disk_errors += 1
            return None
        if isinstance(payload, CacheEntry):
            # Legacy v1 file (bare entry, no schema tag): stale format,
            # invalidate gracefully.
            with self._lock:
                self.schema_mismatches += 1
            return None
        if not isinstance(payload, dict):
            with self._lock:
                self.disk_errors += 1
            return None
        entry = payload.get("entry")
        if payload.get("schema_version") != CACHE_SCHEMA_VERSION or not isinstance(
            entry, CacheEntry
        ):
            with self._lock:
                self.schema_mismatches += 1
            return None
        return entry

    def load_by_name(self, name: str) -> CacheEntry | None:
        """Read one library entry by filename (the neighbor-search path)."""
        try:
            blob = self.library.get(name)
        except OSError:
            with self._lock:
                self.disk_errors += 1
            return None
        if blob is None:
            return None
        return self._decode_entry(blob)

    def _load_fallback(self, key: tuple) -> CacheEntry | None:
        entry = self.load_by_name(_key_filename(key))
        if entry is not None:
            with self._lock:
                self.disk_hits += 1
        return entry

    def annotate_target(self, key: tuple, target: np.ndarray) -> None:
        """Heal the durable neighbor index alongside the in-memory one."""
        super().annotate_target(key, target)
        self.neighbors.annotate(_key_filename(key), target, key[1])

    def freeze_neighbors(self) -> None:
        super().freeze_neighbors()
        self.neighbors.freeze()

    def thaw_neighbors(self) -> None:
        super().thaw_neighbors()
        self.neighbors.thaw()

    def find_neighbor(
        self, key: tuple, target: np.ndarray, max_dist: float
    ) -> NeighborMatch | None:
        """Nearest match across both tiers (memory scan + library index)."""
        best = super().find_neighbor(key, target, max_dist)
        hit = self.neighbors.find_nearest(
            np.asarray(target, dtype=complex),
            key[1],
            max_dist,
            exclude=_key_filename(key),
        )
        if hit is not None and (best is None or hit.distance < best.distance):
            if best is not None and hit.name == best.name:
                return best  # same entry, already in memory
            entry = self.load_by_name(hit.name)
            if entry is not None:
                return NeighborMatch(
                    entry=entry,
                    distance=hit.distance,
                    name=hit.name,
                    source="library",
                )
        return best

    def __getstate__(self) -> dict:
        # The disk tier is the durable source of truth, so the memory tier
        # need not travel with the pickle — an unpickled copy re-reads
        # entries from disk on demand.  Shipping it would cost
        # O(cache size) serialization per pickle.
        state = super().__getstate__()
        state["_entries"] = {}
        state["_targets"] = {}
        return state

    def _persist(
        self, key: tuple, entry: CacheEntry, target: np.ndarray | None = None
    ) -> None:
        from repro.library.neighbors import target_metadata

        payload = {"schema_version": CACHE_SCHEMA_VERSION, "entry": entry}
        meta = None if target is None else target_metadata(target, key[1])
        try:
            self.library.put(
                _key_filename(key),
                pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL),
                schema_version=CACHE_SCHEMA_VERSION,
                meta=meta,
            )
        except OSError:
            with self._lock:
                self.disk_errors += 1

    def gc(self, budget_mb: float | None = None):
        """Evict least-recently-used persisted pulses down to the budget.

        Delegates to :meth:`repro.library.PulseLibrary.gc`; the in-memory
        tier is untouched (evicted entries a live process already holds in
        memory keep serving until it exits).
        """
        return self.library.gc(budget_mb)

    def stats(self, sweep: bool = False) -> dict:
        """Counters of both tiers, with no file I/O unless ``sweep``.

        ``sweep=True`` adds the on-disk inventory of
        :meth:`repro.library.PulseLibrary.sweep`: ``persisted_entries`` and
        the swept fields under ``"library"``.  That reads every shard, so
        only inspection surfaces ask for it, never a request.
        """
        data = super().stats()
        library_stats = self.library.stats()
        data.update(
            {
                "directory": str(self.directory),
                "disk_hits": self.disk_hits,
                "disk_errors": self.disk_errors,
                "schema_version": CACHE_SCHEMA_VERSION,
                "schema_mismatches": self.schema_mismatches,
                "library": library_stats,
                "neighbors": self.neighbors.stats(),
            }
        )
        if sweep:
            inventory = self.library.sweep()
            library_stats.update(inventory)
            data["persisted_entries"] = inventory["entries"]
        return data
