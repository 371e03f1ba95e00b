"""Cross-circuit block deduplication scheduling.

Variational workloads compile *batches* of closely related circuits — the
same ansatz at many parametrizations, or several molecules sharing CX
ladders and basis changes.  Mapping each circuit's blocks through the
executor independently compiles identical blocks once per circuit;
:class:`BlockScheduler` instead collects every block task across the whole
batch, groups them by their dedup identity — the phase-canonical unitary
fingerprint plus physical control context, exactly the pulse-cache key
(:meth:`repro.core.compiler.BlockPulseCompiler.task_key`) — dispatches one
representative per group through the block executor, and fans the compiled
pulse back out to every duplicate.  N circuits sharing a block pay for it
once, even when the cache is cold, even under a parallel executor (where
per-circuit maps would race identical blocks into redundant GRAPE runs).

Fan-out mirrors the cache-hit path of
:meth:`~repro.core.compiler.BlockPulseCompiler.compile_block`: a usable
representative pulse is retargeted to the duplicate's device qubits
(contexts are translation-invariant by construction); a representative
that fell back to lookup pulses falls back for the duplicate too, against
the *duplicate's* own gate-based duration — preserving the paper's
strictly-not-worse guarantee blockwise.

Entry point: :meth:`repro.pipeline.pipeline.CompilationPipeline.run_many`,
which every pipeline with a pulse stage goes through (``run`` is the batch
of one).

A scheduler constructed with a :class:`SchedulerState` additionally
remembers every representative it has compiled *across* ``run`` calls:
the next batch fed through the same scheduler pays only for blocks it has
never seen in the whole run.  This is the streaming/variational mode —
:class:`repro.service.CompilationService` keeps one state for its
lifetime and feeds it a stream of requests, so iteration N+1's shared
fixed blocks cost zero GRAPE dispatches.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import partial

from repro.circuits.dag import critical_path_ns
from repro.errors import PipelineError
from repro.perf import get_perf_registry
from repro.pipeline.executors import BlockExecutor, SerialExecutor
from repro.pipeline.stages import BlockTask, PipelineContext, _dispatch_task
from repro.pulse.schedule import PulseSchedule, lookup_schedule
from repro.service.config import ServiceConfig


@dataclass
class SchedulerReport:
    """Work accounting for one batch scheduling pass.

    ``deduped_blocks`` counts duplicates folded onto a representative
    *within* this batch; ``reused_blocks`` counts blocks served from the
    scheduler's cross-call :class:`SchedulerState` — work some *earlier*
    batch already paid for.
    """

    circuits: int = 0
    total_blocks: int = 0
    unique_blocks: int = 0
    deduped_blocks: int = 0
    reused_blocks: int = 0
    parametrized_blocks: int = 0
    trivial_blocks: int = 0
    dispatched_tasks: int = 0
    batched_groups: int = 0  # same-shape groups sent to the batched kernel
    batched_blocks: int = 0  # unique blocks those groups covered
    warm_started_blocks: int = 0  # dispatched blocks that got a GRAPE seed
    warm_accepted_blocks: int = 0  # seeds whose result won the best-of guard
    group_sizes: dict = field(default_factory=dict)  # key-size histogram

    def as_dict(self) -> dict:
        return {
            "circuits": self.circuits,
            "total_blocks": self.total_blocks,
            "unique_blocks": self.unique_blocks,
            "deduped_blocks": self.deduped_blocks,
            "reused_blocks": self.reused_blocks,
            "parametrized_blocks": self.parametrized_blocks,
            "trivial_blocks": self.trivial_blocks,
            "dispatched_tasks": self.dispatched_tasks,
            "batched_groups": self.batched_groups,
            "batched_blocks": self.batched_blocks,
            "warm_started_blocks": self.warm_started_blocks,
            "warm_accepted_blocks": self.warm_accepted_blocks,
            "dedup_ratio": round(
                (self.deduped_blocks + self.reused_blocks) / self.total_blocks, 4
            )
            if self.total_blocks
            else 0.0,
        }


@dataclass
class _SeenBlock:
    """What a long-lived scheduler remembers about one compiled key."""

    outcome: object  # the representative's BlockCompileOutcome
    cache_entry: object = None  # its CacheEntry when visible to this process


@dataclass
class SchedulerState:
    """Cross-call dedup memory for a long-lived scheduler.

    Maps dedup keys (fingerprint + control context) to their compiled
    representative.  State is only recorded after a batch completes
    successfully — a representative whose dispatch *raised* leaves no
    entry behind, so later calls recompile instead of fanning out a pulse
    that was never produced.

    The map is LRU-bounded (``max_entries``): a variational run binds a
    fresh θ every iteration, so its θ-dependent blocks record keys that
    will never hit again — without a bound those one-shot entries (each
    pinning full pulse schedules) would grow with the iteration count.
    The θ-independent blocks the bound exists to protect are re-touched
    every iteration, so LRU keeps exactly them.

    Every mutation is serialized on an internal lock: a
    :class:`~repro.service.facade.CompilationService` runs overlapping
    ``submit()`` requests through one shared state, so lookup/record must
    be safe under concurrent schedulers.  Cold misses on the same key are
    *single-flighted*: the first scheduler to :meth:`claim` a key owns its
    compilation, and concurrent schedulers that want the same key
    :meth:`wait_for` the owner's record instead of racing a duplicate
    GRAPE run.  Waiting always happens after a pass has dispatched its own
    owned work (see :meth:`BlockScheduler.run`), so two passes can never
    deadlock on each other's claims.  GRAPE is deterministic for a given
    (target, context, settings), so serving an owner's pulse to a waiter
    is bit-identical to the waiter compiling it itself.
    """

    seen: dict = field(default_factory=dict)  # key -> _SeenBlock, LRU order
    max_entries: int = 4096
    cross_call_hits: int = 0
    batches: int = 0
    evictions: int = 0

    def __post_init__(self):
        self._lock = threading.RLock()
        # Single-flight coordination: key -> threading.Event for keys some
        # scheduler is compiling *right now*.  Concurrent schedulers that
        # want the same key wait for the owner's record instead of racing
        # a duplicate GRAPE run.
        self._pending: dict = {}

    def __len__(self) -> int:
        with self._lock:
            return len(self.seen)

    def lookup(self, key) -> "_SeenBlock | None":
        """The remembered block for ``key``, refreshing its LRU position."""
        with self._lock:
            block = self.seen.get(key)
            if block is not None:
                # dicts preserve insertion order: re-insert to mark as fresh.
                del self.seen[key]
                self.seen[key] = block
                self.cross_call_hits += 1
            return block

    def record(self, key, block: "_SeenBlock") -> None:
        """Remember ``key``'s compiled representative, evicting LRU entries.

        Also resolves any in-flight :meth:`claim` on ``key``: waiters
        blocked in :meth:`wait_for` wake up and find the entry.
        """
        with self._lock:
            self.seen.pop(key, None)
            self.seen[key] = block
            while len(self.seen) > self.max_entries:
                self.seen.pop(next(iter(self.seen)))
                self.evictions += 1
            pending = self._pending.pop(key, None)
            if pending is not None:
                pending.set()

    def claim(self, key) -> tuple:
        """Atomically look up ``key`` or claim the right to compile it.

        Returns ``("hit", block)`` when the key is already remembered
        (LRU-refreshed, counted as a cross-call hit), ``("owned", None)``
        when the caller is now responsible for compiling it — it *must*
        eventually :meth:`record` or :meth:`release` the key — and
        ``("pending", None)`` when another scheduler owns it right now,
        in which case the caller should :meth:`wait_for` the result
        after dispatching its own work.
        """
        with self._lock:
            block = self.seen.get(key)
            if block is not None:
                del self.seen[key]
                self.seen[key] = block
                self.cross_call_hits += 1
                return "hit", block
            if key in self._pending:
                return "pending", None
            self._pending[key] = threading.Event()
            return "owned", None

    def release(self, key) -> None:
        """Abandon a :meth:`claim` without recording (the dispatch raised).

        Waiters wake up, find no entry and no pending owner, and compile
        the key themselves instead of blocking forever.
        """
        with self._lock:
            pending = self._pending.pop(key, None)
            if pending is not None:
                pending.set()

    def wait_for(self, key) -> "_SeenBlock | None":
        """Block until ``key``'s owner records or releases it.

        Returns the remembered block (counted as a cross-call hit) when
        the owner succeeded, ``None`` when the owner released the claim
        without recording — the caller compiles the key itself.
        """
        while True:
            with self._lock:
                block = self.seen.get(key)
                if block is not None:
                    del self.seen[key]
                    self.seen[key] = block
                    self.cross_call_hits += 1
                    return block
                pending = self._pending.get(key)
                if pending is None:
                    return None
            pending.wait()

    def count_batch(self) -> None:
        """Count one completed scheduling pass."""
        with self._lock:
            self.batches += 1

    def clear(self) -> None:
        """Forget every remembered block (counters are kept)."""
        with self._lock:
            self.seen.clear()

    def as_dict(self) -> dict:
        with self._lock:
            return {
                "known_blocks": len(self.seen),
                "cross_call_hits": self.cross_call_hits,
                "batches": self.batches,
                "evictions": self.evictions,
            }


def _retarget_outcome(outcome, task: BlockTask, cache_entry=None):
    """Build a duplicate's outcome from its group representative's.

    The logic is the cache-hit path of ``compile_block``, judged against
    the *duplicate's* own gate-based duration.  When the representative's
    cache entry is available (``cache_entry``), that judgment is exact:
    a GRAPE pulse the representative discarded as a fallback (its own
    gate time was shorter) can still win for a duplicate whose
    decomposition is slower.  Without the entry (another process's
    cache write never reached this one), the representative's
    outcome is the only evidence, so an unusable representative means the
    duplicate takes its lookup fallback.  Either way the duplicate costs
    zero GRAPE iterations and is never worse than gate-based compilation.
    """
    from repro.core.compiler import BlockCompileOutcome

    gate_ns = critical_path_ns(task.subcircuit)
    device_qubits = tuple(task.device_qubits)
    if cache_entry is not None:
        shared = cache_entry.schedule
        usable = (
            cache_entry.converged and cache_entry.duration_ns <= gate_ns + 1e-9
        )
        duration = cache_entry.duration_ns
        fidelity = cache_entry.fidelity
    else:
        shared = outcome.schedule
        usable = outcome.used_grape and outcome.duration_ns <= gate_ns + 1e-9
        duration = outcome.duration_ns
        fidelity = outcome.fidelity
    if usable:
        schedule = PulseSchedule(
            qubits=device_qubits,
            dt_ns=shared.dt_ns,
            controls=shared.controls,
            channel_names=shared.channel_names,
            source="dedup",
        )
    else:
        schedule = lookup_schedule(device_qubits, gate_ns, source="fallback")
        duration = gate_ns
    return BlockCompileOutcome(
        schedule=schedule,
        duration_ns=duration,
        gate_based_ns=gate_ns,
        iterations=0,
        cache_hit=True,
        used_grape=usable,
        fidelity=fidelity,
    )


class BlockScheduler:
    """Deduplicating dispatcher for a batch of blocked pipeline contexts."""

    def __init__(
        self,
        block_compiler,
        executor: BlockExecutor | None = None,
        parametrized_handler=None,
        state: SchedulerState | None = None,
        grape_batch: bool = ServiceConfig.grape_batch,
    ):
        self.block_compiler = block_compiler
        self.executor = executor if executor is not None else SerialExecutor()
        self.parametrized_handler = parametrized_handler
        # ``state`` makes the scheduler long-lived: representatives compiled
        # in one ``run`` are remembered and served for free in the next.
        self.state = state
        # Cross-block batched GRAPE dispatch: when the executor runs tasks
        # inline, same-shape representatives are stacked through the
        # batched kernel instead of mapped.
        self.grape_batch = bool(grape_batch)
        self._dispatch = partial(
            _dispatch_task, block_compiler, parametrized_handler
        )

    def _batched_dispatch_allowed(self, fixed_count: int) -> bool:
        """Whether this pass should stack fixed tasks into the batched kernel.

        Requires an executor that *prefers* batching (serial and auto; the
        fleet's queue dispatcher ships searches instead) and at least two
        fixed representatives.
        """
        return (
            self.grape_batch
            and fixed_count >= 2
            and getattr(self.executor, "prefers_batched", False)
        )

    def _dispatch_all(self, order: list, dispatch_tasks: list) -> tuple:
        """Run every dispatch task; batch fixed ones when it pays.

        Fixed representatives take :meth:`~repro.core.compiler
        .BlockPulseCompiler.compile_blocks_batched` when the executor
        prefers batching, else :func:`~repro.core.compiler.compile_jobs`
        as :class:`~repro.pipeline.jobs.BlockJob` descriptors.  Either way
        their searches go through the executor's ``run_tasks``, and hits,
        seeds, caching and judgment stay in this process.  Parametrized
        tasks take the closure ``map`` — they are not serializable as
        jobs.

        Returns ``(results, stats)`` with results aligned to
        ``dispatch_tasks`` and ``stats`` the compiler's batching summary
        (empty counts when the job route ran instead).
        """
        from repro.core.compiler import compile_jobs

        fixed_idx = [j for j, (kind, _) in enumerate(order) if kind == "group"]
        if self._batched_dispatch_allowed(len(fixed_idx)):
            outcomes, stats = self.block_compiler.compile_blocks_batched(
                [
                    (
                        dispatch_tasks[j].subcircuit,
                        dispatch_tasks[j].device_qubits,
                    )
                    for j in fixed_idx
                ],
                executor=self.executor,
                identities=[
                    (order[j][1], dispatch_tasks[j].target) for j in fixed_idx
                ],
            )
        else:
            # Grouped representatives always carry a real dedup key (the
            # trivial ones were compiled inline before dispatch), so
            # make_job never returns None here.
            jobs = [
                self.block_compiler.make_job(
                    dispatch_tasks[j].subcircuit,
                    dispatch_tasks[j].device_qubits,
                    key=order[j][1],
                    target=dispatch_tasks[j].target,
                )
                for j in fixed_idx
            ]
            outcomes = compile_jobs(
                jobs, self.block_compiler.cache, self.executor
            )
            stats = {"batched_groups": 0, "batched_blocks": 0}
        results: list = [None] * len(dispatch_tasks)
        for j, outcome in zip(fixed_idx, outcomes):
            results[j] = outcome
        rest = [j for j, (kind, _) in enumerate(order) if kind != "group"]
        mapped = self.executor.map(
            self._dispatch, [dispatch_tasks[j] for j in rest]
        )
        for j, result in zip(rest, mapped):
            results[j] = result
        return results, stats

    def run(self, contexts: list) -> SchedulerReport:
        """Compile every context's tasks, deduplicating across the batch.

        Each context must have been through a blocking stage
        (``context.tasks`` populated); on return every context has
        ``block_results`` aligned with its tasks, exactly as if its pulse
        stage had run alone — except that duplicate blocks carry retargeted
        copies of one shared compilation.
        """
        report = SchedulerReport(circuits=len(contexts))
        groups: dict = {}  # key -> list[(context_index, task_index, task)]
        order: list = []  # (kind, payload) in dispatch order
        slots: dict = {}  # (context_index, task_index) -> result
        waits: list = []  # (ci, ti, task, key) owned by a concurrent pass
        owned: set = set()  # state keys this pass claimed and must resolve
        for ci, context in enumerate(contexts):
            if context.tasks is None:
                raise PipelineError(
                    "a blocking stage must run before batch scheduling"
                )
            for ti, task in enumerate(context.tasks):
                report.total_blocks += 1
                if task.kind == "parametrized":
                    report.parametrized_blocks += 1
                    order.append(("task", (ci, ti, task)))
                    continue
                if task.dedup_key_known:
                    # Plan replay (or a prior build_plan pass) already paid
                    # for this block's fingerprint; trust it.
                    key = task.dedup_key
                else:
                    # The unitary this builds rides along on the task to
                    # the compile route (one matrix per cold block).
                    key, task.target = self.block_compiler.task_identity(
                        task.subcircuit, task.device_qubits
                    )
                if key is None:
                    # Empty / zero-duration blocks: no GRAPE, compile inline.
                    report.trivial_blocks += 1
                    slots[(ci, ti)] = self.block_compiler.compile_block(
                        task.subcircuit, task.device_qubits
                    )
                    continue
                members = groups.get(key)
                if members is not None:
                    # In-batch duplicate of a group this pass already owns.
                    members.append((ci, ti, task))
                    continue
                if self.state is not None:
                    status, seen = self.state.claim(key)
                    if status == "hit":
                        # An earlier batch through this scheduler already
                        # compiled this block: serve it like a duplicate,
                        # judged against this task's own gate time.
                        report.reused_blocks += 1
                        slots[(ci, ti)] = _retarget_outcome(
                            seen.outcome, task, seen.cache_entry
                        )
                        continue
                    if status == "pending":
                        # A concurrent pass is compiling this key right
                        # now.  Don't duplicate its GRAPE run — dispatch
                        # our own work first, then wait for its record.
                        waits.append((ci, ti, task, key))
                        continue
                    owned.add(key)
                groups[key] = members = []
                order.append(("group", key))
                members.append((ci, ti, task))

        dispatch_tasks = []
        for kind, payload in order:
            if kind == "group":
                dispatch_tasks.append(groups[payload][0][2])
            else:
                dispatch_tasks.append(payload[2])
        report.dispatched_tasks = len(dispatch_tasks)
        report.unique_blocks = len(groups)
        # Warm-start accounting is delta-based: the compiler counts seeds
        # globally (both dispatch paths), so the dispatch window's counter
        # movement is this pass's share.  Concurrent passes can bleed into
        # each other's deltas — acceptable for telemetry.
        perf = get_perf_registry()
        seeds_before = perf.counter(
            "grape.warm_start.neighbor_seeds"
        ) + perf.counter("grape.warm_start.kak_seeds")
        accepted_before = perf.counter("grape.warm_start.accepted")
        # Pin warm-start candidates to the pre-pass cache state for the
        # whole dispatch window so results cannot depend on executor
        # scheduling order (see PulseCache.freeze_neighbors).
        cache = getattr(self.block_compiler, "cache", None)
        if cache is not None:
            cache.freeze_neighbors()
        try:
            try:
                results, batch_stats = self._dispatch_all(order, dispatch_tasks)
                report.batched_groups = batch_stats["batched_groups"]
                report.batched_blocks = batch_stats["batched_blocks"]

                for (kind, payload), result in zip(order, results):
                    if kind == "task":
                        ci, ti, _task = payload
                        slots[(ci, ti)] = result
                        continue
                    members = groups[payload]
                    rep_ci, rep_ti, _rep_task = members[0]
                    slots[(rep_ci, rep_ti)] = result
                    # The representative's cache entry (when its write is
                    # visible to this process) lets fan-out judge duplicates
                    # exactly as a per-circuit cache hit would; see
                    # _retarget_outcome.  A stateful scheduler fetches it even
                    # for singleton groups so future cross-call reuse gets the
                    # same exact judgment.
                    cache_entry = (
                        self.block_compiler.cache.get(payload)
                        if len(members) > 1 or self.state is not None
                        else None
                    )
                    for ci, ti, task in members[1:]:
                        report.deduped_blocks += 1
                        slots[(ci, ti)] = _retarget_outcome(
                            result, task, cache_entry
                        )
                    if self.state is not None:
                        # Recorded only on this (post-``map``) success path: a
                        # representative whose dispatch raised never reaches
                        # here, so no later call can fan out a pulse that does
                        # not exist.
                        self.state.record(payload, _SeenBlock(result, cache_entry))
                        owned.discard(payload)
            finally:
                if self.state is not None and owned:
                    # A dispatch raised before every owned key was recorded:
                    # release the leftover claims so concurrent waiters (and
                    # future passes) compile those keys themselves instead of
                    # blocking on a result that will never arrive.
                    for key in owned:
                        self.state.release(key)

            # Blocks owned by concurrent passes: our own dispatch is done, so
            # waiting here can never deadlock — every pass resolves its owned
            # keys without waiting on anyone else's.
            for ci, ti, task, key in waits:
                seen = self.state.wait_for(key)
                if seen is not None:
                    report.reused_blocks += 1
                    slots[(ci, ti)] = _retarget_outcome(
                        seen.outcome, task, seen.cache_entry
                    )
                    continue
                # The owner released without recording (its dispatch raised,
                # or the entry was evicted already): compile it ourselves.
                outcome = self._dispatch(task)
                cache_entry = self.block_compiler.cache.get(key)
                self.state.record(key, _SeenBlock(outcome, cache_entry))
                report.unique_blocks += 1
                report.dispatched_tasks += 1
                slots[(ci, ti)] = outcome
        finally:
            if cache is not None:
                cache.thaw_neighbors()

        for ci, context in enumerate(contexts):
            context.block_results = [
                slots[(ci, ti)] for ti in range(len(context.tasks))
            ]
            context.executor_info = self.executor.describe()

        if self.state is not None:
            self.state.count_batch()
        report.warm_started_blocks = (
            perf.counter("grape.warm_start.neighbor_seeds")
            + perf.counter("grape.warm_start.kak_seeds")
            - seeds_before
        )
        report.warm_accepted_blocks = (
            perf.counter("grape.warm_start.accepted") - accepted_before
        )
        perf.count("scheduler.batches")
        perf.count("scheduler.unique_blocks", report.unique_blocks)
        perf.count("scheduler.deduped_blocks", report.deduped_blocks)
        if report.reused_blocks:
            perf.count("scheduler.reused_blocks", report.reused_blocks)
        if report.batched_blocks:
            perf.count("scheduler.batched_groups", report.batched_groups)
            perf.count("scheduler.batched_blocks", report.batched_blocks)
        if report.warm_started_blocks:
            perf.count(
                "scheduler.warm_started_blocks", report.warm_started_blocks
            )
        return report
