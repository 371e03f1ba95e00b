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

Fan-out is the cache-hit rule of
:meth:`~repro.core.compiler.BlockPulseCompiler.compile_block`, applied to
the representative's cache entry: the pulse is retargeted to the
duplicate's device qubits (contexts are translation-invariant by
construction) when it beats the *duplicate's* own gate-based duration,
and the duplicate falls back to lookup pulses otherwise — preserving the
paper's strictly-not-worse guarantee blockwise.  So a GRAPE pulse the
representative discarded (its own decomposition was faster) still wins for
a duplicate whose decomposition is slower.

The pulse cache's memory tier is the scheduler's memory *across* calls:
a block it already holds is served by the same rule at keying time, with
no dispatch, and a block it lacks is claimed through the cache's
single-flight (:meth:`~repro.core.cache.PulseCache.claim`), so concurrent
passes never race one key into two GRAPE runs.  A service keeps one cache
for its lifetime and feeds it a stream of requests, so iteration N+1's
shared fixed blocks cost zero GRAPE dispatches.  The disk tier is read
only on a claimed key's compile route, never at keying time.

Entry point: :meth:`repro.pipeline.pipeline.CompilationPipeline.run_many`,
which every pipeline with a pulse stage goes through (``run`` is the batch
of one).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from repro.circuits.dag import critical_path_ns
from repro.errors import PipelineError
from repro.perf import get_perf_registry
from repro.pipeline.executors import BlockExecutor, SerialExecutor
from repro.pipeline.stages import _dispatch_task


@dataclass
class SchedulerReport:
    """Work accounting for one batch scheduling pass.

    ``deduped_blocks`` counts duplicates folded onto a representative
    *within* this batch; ``reused_blocks`` counts blocks served from the
    pulse cache's memory tier — work some *earlier* or concurrent batch
    already paid for.
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


class BlockScheduler:
    """Deduplicating dispatcher for a batch of blocked pipeline contexts."""

    def __init__(
        self,
        block_compiler,
        executor: BlockExecutor | None = None,
        parametrized_handler=None,
    ):
        self.block_compiler = block_compiler
        self.executor = executor if executor is not None else SerialExecutor()
        self.parametrized_handler = parametrized_handler
        self._dispatch = partial(
            _dispatch_task, block_compiler, parametrized_handler
        )

    def _served(self, task, entry):
        """A block's outcome from a cache entry compiled for its key: the
        cache-hit rule, judged against this task's own gate time."""
        gate_ns = task.gate_ns
        if gate_ns is None:
            gate_ns = critical_path_ns(task.subcircuit)
        return self.block_compiler._cache_hit_outcome(
            task.device_qubits, gate_ns, entry
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
        # Stacking needs an executor that *prefers* batching (serial and
        # auto; an overlapping executor ships searches instead) and at
        # least two fixed representatives.
        if len(fixed_idx) >= 2 and getattr(self.executor, "prefers_batched", False):
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
        stage had run alone — except that duplicate and reused blocks carry
        retargeted copies of one shared compilation.
        """
        report = SchedulerReport(circuits=len(contexts))
        cache = self.block_compiler.cache
        groups: dict = {}  # key -> list[(context_index, task_index, task)]
        order: list = []  # (kind, payload) in dispatch order
        slots: dict = {}  # (context_index, task_index) -> result
        waits: list = []  # (ci, ti, task, key) owned by a concurrent pass
        try:
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
                    status, entry = cache.claim(key)
                    if status == "hit":
                        # An earlier pass already compiled this block.
                        report.reused_blocks += 1
                        slots[(ci, ti)] = self._served(task, entry)
                        continue
                    if status == "pending":
                        # A concurrent pass is compiling this key right now.
                        # Don't duplicate its GRAPE run — dispatch our own work
                        # first, then wait for its entry.
                        waits.append((ci, ti, task, key))
                        continue
                    groups[key] = [(ci, ti, task)]
                    order.append(("group", key))
        except BaseException:
            # Keys claimed before the failure must not strand their waiters.
            for key in groups:
                cache.release(key)
            raise

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
        cache.freeze_neighbors()
        try:
            try:
                results, batch_stats = self._dispatch_all(order, dispatch_tasks)
            finally:
                # Every representative's entry is cached by now, or its
                # dispatch raised: either way waiters may go on.
                for key in groups:
                    cache.release(key)
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
                if len(members) > 1:
                    entry = cache.get(payload)
                    for ci, ti, task in members[1:]:
                        report.deduped_blocks += 1
                        slots[(ci, ti)] = self._served(task, entry)

            # Blocks owned by concurrent passes: our own dispatch is done, so
            # waiting here can never deadlock — every pass resolves its owned
            # keys without waiting on anyone else's.
            for ci, ti, task, key in waits:
                entry = cache.wait(key)
                if entry is not None:
                    report.reused_blocks += 1
                    slots[(ci, ti)] = self._served(task, entry)
                    continue
                # The owner's dispatch raised: compile it ourselves.
                slots[(ci, ti)] = self._dispatch(task)
                report.unique_blocks += 1
                report.dispatched_tasks += 1
        finally:
            cache.thaw_neighbors()

        for ci, context in enumerate(contexts):
            context.block_results = [
                slots[(ci, ti)] for ti in range(len(context.tasks))
            ]
            context.executor_info = self.executor.describe()

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
