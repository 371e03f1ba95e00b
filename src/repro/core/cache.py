"""Pulse cache keyed by block unitary.

Variational circuits are extremely repetitive — UCCSD repeats the same CX
ladders and basis changes hundreds of times — so GRAPE results are cached by
a phase-canonical hash of the target unitary plus the physical context
(channel layout, time step, fidelity target).  Strict partial compilation's
"zero runtime latency" and the tractability of the benchmark harness both
rest on this cache.

Two backends are provided:

* :class:`PulseCache` — in-memory, thread-safe, with hit/miss/timing
  telemetry.  This is the seed behavior and remains the default.  Its
  memory tier is also the service's one memory of compiled blocks: the
  batch scheduler serves a block it holds without dispatching anything,
  and single-flights the compilation of a block it lacks
  (:meth:`PulseCache.claim`).
* :class:`PersistentPulseCache` — additionally mirrors every entry into a
  sharded on-disk :class:`repro.library.PulseLibrary`, fingerprint-keyed,
  so a *second process* (or a later session) starts warm.  Writes are
  atomic (temp file + ``os.replace``), which makes the directory safe
  under concurrent writers — other processes, and other hosts sharing
  the directory over a network filesystem.  The library also carries
  the index, the LRU/budget ``gc()``, and the one-time migration of
  legacy flat directories.

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

    Thread-safe: a service's overlapping ``submit()`` requests share one
    cache, and every block consults it.  Counters, the entry dict and the
    single-flight claims are guarded by one lock; lookup/store wall time is
    accumulated so cache overhead shows up in pipeline telemetry rather
    than hiding in GRAPE time.

    Single-flight (:meth:`claim` / :meth:`release` / :meth:`wait`): the
    first scheduling pass to claim a key the memory tier lacks compiles it,
    and concurrent passes that want the same key wait for the owner's
    entry instead of racing a duplicate GRAPE run.  A pass waits only
    after dispatching the keys it owns, so two passes never deadlock on
    each other's claims.  GRAPE is deterministic for a given (target,
    context, settings), so serving an owner's pulse to a waiter is
    bit-identical to the waiter compiling it itself.

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
        # Warm-start index: (context, target shape) -> TargetStack of the
        # known target unitaries, keyed by cache key, in insertion order.
        self._stacks: dict = {}
        # While frozen, neighbor search sees only the rows each stack had
        # at freeze time (see freeze_neighbors); depth-counted for nesting.
        # Rows are never removed, so a row count is the pre-freeze set.
        self._frozen_depth = 0
        self._frozen_rows: dict | None = None
        self._lock = threading.Lock()
        # Single-flight: key -> Event for the keys some scheduling pass is
        # compiling right now (see claim).
        self._claims: dict = {}
        self.hits = 0
        self.misses = 0
        self.lookup_time_s = 0.0
        self.store_time_s = 0.0
        # content fingerprint -> unitary fingerprint, LRU order.
        self._fingerprints: OrderedDict = OrderedDict()
        self.key_memo_hits = 0
        self.key_memo_misses = 0

    # The lock cannot cross process boundaries (a pickled block compiler
    # carries its cache); recreate it on unpickle.  Claims stay behind: they
    # belong to this process's scheduling passes.
    # The fingerprint memo stays behind too: job venues never re-key blocks.
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_lock"]
        state["_claims"] = {}
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
        """``unitary_fingerprint(circuit_unitary(block))``, memoized."""
        return self.block_identity(block)[0]

    def block_identity(self, block: QuantumCircuit) -> tuple:
        """``(fingerprint, unitary)`` of a bound block; the fingerprint is
        :meth:`block_fingerprint`'s.

        ``unitary`` is the block's ``circuit_unitary`` when this call built
        it (a memo miss) and ``None`` on a memo hit, so a caller that goes
        on to compile a new block passes the matrix along instead of
        building it again.  The memo key is the block's exact
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
                return fingerprint, None
            self.key_memo_misses += 1
        unitary = circuit_unitary(block)
        fingerprint = unitary_fingerprint(unitary)
        with self._lock:
            self._fingerprints[content] = fingerprint
            while len(self._fingerprints) > self.key_memo_max:
                self._fingerprints.popitem(last=False)
        return fingerprint, unitary

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

    def claim(self, key: tuple) -> tuple:
        """Serve ``key`` from the memory tier, or claim its compilation.

        Returns ``("hit", entry)`` when memory holds ``key`` (counted as a
        hit), ``("owned", None)`` when the caller now compiles it and must
        :meth:`release` it afterwards, success or not, and ``("pending",
        None)`` when another pass owns it: the caller calls :meth:`wait`
        after dispatching its own work.  Never reads a slower tier: a
        claimed key's compile route does that.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self.hits += 1
                return "hit", entry
            if key in self._claims:
                return "pending", None
            self._claims[key] = threading.Event()
            return "owned", None

    def release(self, key: tuple) -> None:
        """End a :meth:`claim`: waiters wake and find the owner's entry,
        or, when the owner's dispatch raised, compile the key
        themselves."""
        with self._lock:
            event = self._claims.pop(key, None)
        if event is not None:
            event.set()

    def wait(self, key: tuple) -> CacheEntry | None:
        """Block until ``key``'s owner releases it; return the memory
        entry (counted as a hit), or ``None`` when the owner produced
        none."""
        while True:
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None:
                    self.hits += 1
                    return entry
                event = self._claims.get(key)
                if event is None:
                    return None
            event.wait()

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
                self._index_target(key, target)
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
        target = np.asarray(target, dtype=complex)
        with self._lock:
            if key in self._entries and key not in self._stacks.get(
                (key[1], target.shape), ()
            ):
                self._index_target(key, target)

    def _index_target(self, key: tuple, target: np.ndarray) -> None:
        """Record ``key``'s target for neighbor search (lock held)."""
        from repro.library.neighbors import TargetStack

        target = np.asarray(target, dtype=complex)
        bucket = (key[1], target.shape)
        stack = self._stacks.get(bucket)
        if stack is None:
            stack = self._stacks[bucket] = TargetStack(target.shape[0])
        stack.add(key, target)

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
            if self._frozen_rows is None:
                self._frozen_rows = {
                    bucket: len(stack) for bucket, stack in self._stacks.items()
                }

    def thaw_neighbors(self) -> None:
        """Undo one :meth:`freeze_neighbors` (outermost thaw unpins)."""
        with self._lock:
            self._frozen_depth = max(0, self._frozen_depth - 1)
            if self._frozen_depth == 0:
                self._frozen_rows = None

    def find_neighbor(
        self, key: tuple, target: np.ndarray, max_dist: float
    ) -> NeighborMatch | None:
        """The nearest cached entry for ``target`` within ``max_dist``.

        Only entries whose physical context matches ``key``'s (and whose
        target unitary is known — see :meth:`put`'s ``target`` argument and
        :meth:`annotate_target`) are candidates; the exact ``key`` itself
        never matches.  Returns ``None`` when nothing is close enough.
        Candidates are ranked in one pass over the bucket's
        :class:`~repro.library.neighbors.TargetStack`; equal distances go
        to the entry indexed first.
        """
        target = np.asarray(target, dtype=complex)
        bucket = (key[1], target.shape)
        with self._lock:
            stack = self._stacks.get(bucket)
            if stack is None:
                return None
            frozen = self._frozen_rows
            count = None if frozen is None else frozen.get(bucket, 0)
            found = stack.nearest(target, max_dist, count=count, exclude=key)
            if found is None:
                return None
            other = stack.names[found[0]]
            entry = self._entries[other]
        return NeighborMatch(
            entry=entry,
            distance=found[1],
            name=_key_filename(other),
            source="memory",
        )

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
    entries out across fingerprint-prefix shards, indexes each shard
    (size/created/last-used) in a JSON manifest plus an append-only
    journal, supports LRU eviction via
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
    ):
        super().__init__()
        from repro.library import NeighborIndex, PulseLibrary

        self.library = PulseLibrary(directory, shards=shards)
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
        state["_stacks"] = {}
        if state["_frozen_rows"] is not None:
            state["_frozen_rows"] = {}
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
        """Evict least-recently-used persisted pulses down to ``budget_mb``
        (with none, only reconcile the index).

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
