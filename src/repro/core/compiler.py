"""Shared machinery for pulse compilers.

:class:`BlockPulseCompiler` turns one bound block subcircuit into a pulse
schedule: it consults the pulse cache, runs the minimum-time GRAPE search,
and — crucially — falls back to concatenated lookup pulses whenever GRAPE
cannot beat the block's gate-based duration.  This fallback is what makes
full GRAPE and strict partial compilation *strictly better* than gate-based
compilation (paper sections 5.2 and 6).

Cache-missing blocks are *warm-started* rather than compiled cold: the
cache's approximate-match index (:meth:`repro.core.cache.PulseCache
.find_neighbor`) supplies the nearest cached pulse as a GRAPE seed, and
two-qubit blocks without a neighbor get an analytic seed from the KAK
decomposition (:mod:`repro.pulse.grape.seeding`).  A best-of guard keeps
seeding strictly safe: a seeded search that fails to converge falls back to
the cold search and keeps whichever pulse is better, so a bad seed can
never yield a worse pulse than a cold start — only spend extra iterations,
which the ``grape.warm_start.*`` counters make visible.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.dag import critical_path_ns
from repro.core.cache import CacheEntry, PulseCache
from repro.errors import CompilationError
from repro.perf import get_perf_registry
from repro.pipeline.executors import SerialExecutor
from repro.pipeline.stages import lookup_program
from repro.pulse.device import GmonDevice
from repro.pulse.grape.engine import GrapeHyperparameters, GrapeSettings
from repro.pulse.grape.time_search import minimum_time_pulse
from repro.pulse.hamiltonian import build_control_set
from repro.pulse.schedule import PulseSchedule, lookup_schedule
from repro.service.config import ServiceConfig
from repro.sim.unitary import circuit_unitary

#: Acceptance threshold for approximate-match warm-start seeds: a cached
#: pulse seeds a new block only when the phase-invariant trace distance
#: ``sqrt(1 - |tr(U†V)|/d)`` between the targets is at most this, so seeds
#: stay with genuinely nearby unitaries.
WARM_START_MAX_DIST = 0.25


@dataclass
class BlockCompileOutcome:
    """One block's pulse plus work accounting."""

    schedule: PulseSchedule
    duration_ns: float
    gate_based_ns: float
    iterations: int
    cache_hit: bool
    used_grape: bool
    fidelity: float


class BlockPulseCompiler:
    """Compiles bound subcircuits on device-qubit blocks into pulses."""

    def __init__(
        self,
        device: GmonDevice,
        settings: GrapeSettings | None = None,
        hyperparameters: GrapeHyperparameters | None = None,
        cache: PulseCache | None = None,
        warm_start: bool = ServiceConfig.warm_start,
    ):
        self.device = device
        self.settings = settings or GrapeSettings()
        self.hyperparameters = hyperparameters or GrapeHyperparameters()
        self.cache = cache if cache is not None else PulseCache()
        self.warm_start = warm_start

    def gate_based_schedules(self, circuit: QuantumCircuit) -> list:
        """Per-gate lookup pulses for ``circuit`` (the gate-based model)."""
        from repro.pipeline.stages import lookup_schedules

        return lookup_schedules(circuit)

    def task_key(
        self, subcircuit: QuantumCircuit | None, device_qubits: tuple
    ) -> tuple | None:
        """The dedup/cache identity of one block, or ``None`` if it has none.

        Two blocks with the same key — same phase-canonical target unitary
        and the same physical context (relative channel layout, time step,
        fidelity target) — compile to interchangeable pulses, so a batch
        scheduler may compile one and fan the result out to the others.
        Parametrized, empty, and zero-duration blocks return ``None``:
        they are either not compilable yet or too cheap to dedup.

        The key equals ``cache.key(circuit_unitary(subcircuit),
        build_control_set(device, device_qubits), dt, fidelity)`` — the key
        :meth:`compile_block` stores under — but is built from the device's
        memoized channel layout and the cache's memoized block fingerprint,
        so re-keying an already-compiled block builds no operators.
        """
        return self.task_identity(subcircuit, device_qubits)[0]

    def task_identity(
        self, subcircuit: QuantumCircuit | None, device_qubits: tuple
    ) -> tuple:
        """``(key, target)``: :meth:`task_key` plus the target unitary when
        keying built it (see :meth:`~repro.core.cache.PulseCache
        .block_identity`), else ``None``.  Callers hand ``target`` to
        :meth:`make_job` / :meth:`compile_blocks_batched`, so a cold block
        builds its unitary once."""
        if subcircuit is None or subcircuit.is_parameterized():
            return None, None
        if len(subcircuit) == 0 or critical_path_ns(subcircuit) <= 0:
            return None, None
        fingerprint, target = self.cache.block_identity(subcircuit)
        key = self.cache.key(
            fingerprint,
            self.device.channel_layout(device_qubits),
            self.settings.resolved_dt(),
            self.settings.resolved_target(),
        )
        return key, target

    # -- outcome construction (one rulebook for serial and batched paths) --
    def _trivial_outcome(
        self, device_qubits: tuple, gate_ns: float
    ) -> BlockCompileOutcome:
        """Outcome for an empty or zero-duration block (no GRAPE, no cache)."""
        empty = lookup_schedule(device_qubits, max(gate_ns, 0.0) or 1e-9)
        return BlockCompileOutcome(
            schedule=empty,
            duration_ns=0.0,
            gate_based_ns=gate_ns,
            iterations=0,
            cache_hit=False,
            used_grape=False,
            fidelity=1.0,
        )

    def _cache_hit_outcome(
        self, device_qubits: tuple, gate_ns: float, cached: CacheEntry
    ) -> BlockCompileOutcome:
        """Outcome for a cached pulse, applying the strictly-not-worse rule."""
        usable = cached.converged and cached.duration_ns <= gate_ns + 1e-9
        if usable:
            schedule = PulseSchedule(
                qubits=tuple(device_qubits),
                dt_ns=cached.schedule.dt_ns,
                controls=cached.schedule.controls,
                channel_names=cached.schedule.channel_names,
                source="cache",
            )
            duration = cached.duration_ns
        else:
            # Same rule as the fresh path: a pulse that does not beat the
            # lookup table falls back to it.
            schedule = lookup_schedule(device_qubits, gate_ns, source="fallback")
            duration = gate_ns
        return BlockCompileOutcome(
            schedule=schedule,
            duration_ns=duration,
            gate_based_ns=gate_ns,
            iterations=0,
            cache_hit=True,
            used_grape=usable,
            fidelity=cached.fidelity,
        )

    def _fresh_outcome(
        self, device_qubits: tuple, gate_ns: float, key, result, target=None
    ) -> BlockCompileOutcome:
        """Cache + judge one fresh minimum-time search result."""
        self.cache.put(
            key,
            CacheEntry(
                schedule=result.schedule,
                duration_ns=result.duration_ns,
                fidelity=result.fidelity,
                converged=result.converged,
                iterations=result.total_iterations,
            ),
            target=target,
        )
        if result.converged and result.duration_ns <= gate_ns + 1e-9:
            schedule = PulseSchedule(
                qubits=tuple(device_qubits),
                dt_ns=result.schedule.dt_ns,
                controls=result.schedule.controls,
                channel_names=result.schedule.channel_names,
                source="grape",
            )
            return BlockCompileOutcome(
                schedule=schedule,
                duration_ns=result.duration_ns,
                gate_based_ns=gate_ns,
                iterations=result.total_iterations,
                cache_hit=False,
                used_grape=True,
                fidelity=result.fidelity,
            )
        # GRAPE could not beat the lookup table within budget: fall back, so
        # pulse compilation is never worse than gate-based compilation.
        return BlockCompileOutcome(
            schedule=lookup_schedule(device_qubits, gate_ns, source="fallback"),
            duration_ns=gate_ns,
            gate_based_ns=gate_ns,
            iterations=result.total_iterations,
            cache_hit=False,
            used_grape=False,
            fidelity=result.fidelity,
        )

    # -- warm-started minimum-time search ---------------------------------
    def _find_seed(
        self, key, target: np.ndarray, control_set, gate_ns: float
    ) -> PulseSchedule | None:
        """A warm-start seed for one cache-missing block, or ``None``.

        Preference order per the warm-start design: the nearest cached
        pulse within :data:`WARM_START_MAX_DIST`, then (two-qubit
        blocks only) the analytic KAK seed, then nothing — the caller runs
        a cold search.  Every branch is counted under ``grape.warm_start``.
        """
        if not self.warm_start:
            return None
        perf = get_perf_registry()
        perf.count("grape.warm_start.lookups")
        match = self.cache.find_neighbor(key, target, WARM_START_MAX_DIST)
        if match is not None:
            perf.count("grape.warm_start.neighbor_seeds")
            donor = match.entry.schedule
            return PulseSchedule(
                qubits=control_set.qubits,
                dt_ns=donor.dt_ns,
                controls=donor.controls,
                channel_names=tuple(ch.name for ch in control_set.channels),
                source="neighbor-seed",
            )
        dt = self.settings.resolved_dt()
        steps = max(1, int(round(max(gate_ns, dt) / dt)))
        from repro.pulse.grape.seeding import kak_seed_schedule

        seed = kak_seed_schedule(control_set, target, steps, dt)
        if seed is not None:
            perf.count("grape.warm_start.kak_seeds")
            return seed
        perf.count("grape.warm_start.no_seed")
        return None

    def compile_block(
        self,
        subcircuit: QuantumCircuit,
        device_qubits: tuple,
        hyperparameters: GrapeHyperparameters | None = None,
    ) -> BlockCompileOutcome:
        """Produce the pulse for one block.

        Parameters
        ----------
        subcircuit:
            Bound circuit on local qubits ``0 … k-1``.
        device_qubits:
            The device qubits behind each local index (sorted ascending).
        hyperparameters:
            Optional per-block override (flexible partial compilation passes
            its tuned values here).
        """
        if subcircuit.is_parameterized():
            raise CompilationError("block must be bound before pulse compilation")
        gate_ns = critical_path_ns(subcircuit)
        if len(subcircuit) == 0 or gate_ns <= 0:
            return self._trivial_outcome(device_qubits, gate_ns)

        control_set = build_control_set(self.device, device_qubits)
        target = circuit_unitary(subcircuit)
        dt = self.settings.resolved_dt()
        fid_target = self.settings.resolved_target()
        key = self.cache.key(target, control_set, dt, fid_target)
        job = self._job(
            key,
            target,
            device_qubits,
            gate_ns,
            hyperparameters or self.hyperparameters,
        )
        return compile_jobs([job], self.cache, SerialExecutor())[0]

    def _job(
        self,
        key,
        target: np.ndarray,
        device_qubits: tuple,
        gate_ns: float,
        hyperparameters: GrapeHyperparameters,
        seed: PulseSchedule | None = None,
    ):
        """The :class:`~repro.pipeline.jobs.BlockJob` for one resolved block.

        Deferred-to-runtime knobs are materialized here: preset-resolved
        GRAPE settings and this compiler's warm-start policy — so the job
        searches identically in a process that never saw this
        configuration.
        """
        from repro.pipeline.jobs import BlockJob

        return BlockJob(
            key=key,
            target=target,
            device_qubits=tuple(device_qubits),
            gate_based_ns=gate_ns,
            device=self.device,
            settings=replace(
                self.settings,
                dt_ns=self.settings.resolved_dt(),
                target_fidelity=self.settings.resolved_target(),
            ),
            hyperparameters=hyperparameters,
            warm_start=bool(self.warm_start),
            seed=seed,
        )

    def make_job(
        self,
        subcircuit: QuantumCircuit,
        device_qubits: tuple,
        key: tuple | None = None,
        target: np.ndarray | None = None,
    ):
        """Build the picklable :class:`~repro.pipeline.jobs.BlockJob` for
        one bound block, or ``None`` for a trivial (empty / zero-duration)
        block that needs no GRAPE.

        The job carries no seed: :func:`compile_jobs` resolves it against
        the dispatching process's cache.  ``key`` and ``target`` skip
        recomputing a dedup identity or unitary the caller already paid
        for (the batch scheduler always has the key, and the unitary of
        every block it keyed itself; see :meth:`task_identity`).
        """
        if subcircuit.is_parameterized():
            raise CompilationError("block must be bound before pulse compilation")
        gate_ns = critical_path_ns(subcircuit)
        if len(subcircuit) == 0 or gate_ns <= 0:
            return None
        if target is None:
            target = circuit_unitary(subcircuit)
        if key is None:
            key = self.cache.key(
                target,
                self.device.channel_layout(device_qubits),
                self.settings.resolved_dt(),
                self.settings.resolved_target(),
            )
        return self._job(
            key,
            target,
            device_qubits,
            gate_ns,
            self.hyperparameters,
        )

    def compile_job(self, job) -> BlockCompileOutcome:
        """Compile one :class:`~repro.pipeline.jobs.BlockJob` against this
        compiler's cache.

        The job already carries the resolved identity (key, target,
        gate-based duration).  Bit-identical to :meth:`compile_block` on
        the job's source block.
        """
        return compile_jobs([job], self.cache, SerialExecutor())[0]

    def compile_blocks_batched(
        self,
        blocks: list,
        hyperparameters: GrapeHyperparameters | None = None,
        max_group: int | None = None,
        executor=None,
        identities: list | None = None,
    ) -> tuple:
        """Compile many blocks at once, batching same-shape GRAPE searches.

        ``blocks`` is a list of ``(subcircuit, device_qubits)`` pairs;
        ``identities``, aligned with it, may carry each block's ``(key,
        target)`` from :meth:`task_identity` (either may be ``None``), so
        neither is built a second time.  Each
        block runs the exact same path as :meth:`compile_block` — trivial
        blocks, cache hits, and the strictly-not-worse judgment are
        per-block and unchanged.  Cache misses are grouped by control
        shape ``(dim, n_controls)``.  A block with a warm-start seed
        (cached neighbor or analytic KAK — see :meth:`_find_seed`) becomes
        a seed-carrying :class:`~repro.pipeline.jobs.BlockJob`, and so does
        a seedless block alone in its shape group; ``executor``'s
        ``run_tasks`` runs those pure searches (``None``: inline).  The
        seedless remainder of a larger group runs through the cross-block
        batched kernel (:func:`repro.pulse.grape.batched
        .minimum_time_pulse_batch`), bit-identical to the per-block
        searches, in this thread.

        Seeds come from the pre-call cache state, and every result is
        cached and judged here in the same order whichever venue ran it,
        so pulses, iteration counts and cache contents do not depend on
        the executor.

        Returns ``(outcomes, stats)`` with outcomes in input order and
        ``stats = {"batched_groups": ..., "batched_blocks": ...}``.
        """
        dt = self.settings.resolved_dt()
        fid_target = self.settings.resolved_target()
        hyper = hyperparameters or self.hyperparameters

        outcomes: list = [None] * len(blocks)
        cold: list = []  # (index, control_set, target, gate_ns, key)
        for i, (subcircuit, device_qubits) in enumerate(blocks):
            if subcircuit.is_parameterized():
                raise CompilationError(
                    "block must be bound before pulse compilation"
                )
            gate_ns = critical_path_ns(subcircuit)
            if len(subcircuit) == 0 or gate_ns <= 0:
                outcomes[i] = self._trivial_outcome(device_qubits, gate_ns)
                continue
            control_set = build_control_set(self.device, device_qubits)
            key, target = identities[i] if identities else (None, None)
            if target is None:
                target = circuit_unitary(subcircuit)
            if key is None:
                key = self.cache.key(target, control_set, dt, fid_target)
            cached = self.cache.get(key)
            if cached is not None:
                self.cache.annotate_target(key, target)
                outcomes[i] = self._cache_hit_outcome(
                    device_qubits, gate_ns, cached
                )
                continue
            cold.append((i, control_set, target, gate_ns, key))

        by_shape: dict = {}
        for entry in cold:
            control_set = entry[1]
            by_shape.setdefault(
                (control_set.dim, control_set.num_controls), []
            ).append(entry)

        stats = {"batched_groups": 0, "batched_blocks": 0}
        # Seeds come only from the pre-call cache state, never from pulses
        # this very call just wrote (see PulseCache.freeze_neighbors;
        # nesting inside the scheduler's own freeze is safe — the snapshot
        # is depth-counted).
        self.cache.freeze_neighbors()
        try:
            results, order = self._search_cold_groups(
                by_shape, blocks, hyper, stats, max_group, executor
            )
        finally:
            self.cache.thaw_neighbors()
        # Cache and judge in one fixed order, whichever venue ran each
        # search: puts feed the neighbor index, whose order later seeds
        # depend on.
        entries = {entry[0]: entry for entry in cold}
        for i in order:
            _, _, target, gate_ns, key = entries[i]
            outcomes[i] = self._fresh_outcome(
                blocks[i][1], gate_ns, key, results[i], target
            )
        return outcomes, stats

    def _search_cold_groups(
        self,
        by_shape: dict,
        blocks: list,
        hyper,
        stats: dict,
        max_group: int | None,
        executor,
    ) -> tuple:
        """Run the minimum-time searches of a batched compile's cache misses.

        Returns ``({block index: MinimumTimeResult}, order)``, ``order``
        being the block indices in the order their results are cached:
        group by group, seeded blocks first, then the seedless ones.
        """
        from repro.pulse.grape.batched import minimum_time_pulse_batch

        dt = self.settings.resolved_dt()
        jobs: list = []
        job_index: list = []
        batches: list = []
        order: list = []
        for members in by_shape.values():
            # Warm starts are per-block (each seed is specific to one
            # target), so seeded members run the individual guarded search
            # and only the seedless remainder goes through the batched
            # kernel.  The trade is deliberate: a good seed saves far more
            # iterations than cross-block batching saves per iteration.
            seeded, seedless = [], []
            for entry in members:
                i, control_set, target, gate_ns, key = entry
                seed = self._find_seed(key, target, control_set, gate_ns)
                if seed is None:
                    seedless.append(entry)
                    continue
                seeded.append(entry)
                jobs.append(
                    self._job(key, target, blocks[i][1], gate_ns, hyper, seed)
                )
                job_index.append(i)
            if len(seedless) == 1:
                i, _, target, gate_ns, key = seedless[0]
                jobs.append(self._job(key, target, blocks[i][1], gate_ns, hyper))
                job_index.append(i)
            elif seedless:
                batches.append(seedless)
            order.extend(entry[0] for entry in seeded + seedless)

        searched = (executor or SerialExecutor()).run_tasks(search_job, jobs)
        results = dict(zip(job_index, searched))
        for pending in batches:
            stats["batched_groups"] += 1
            stats["batched_blocks"] += len(pending)
            batch = minimum_time_pulse_batch(
                [entry[1] for entry in pending],
                [entry[2] for entry in pending],
                [max(entry[3], dt) for entry in pending],
                hyperparameters=hyper,
                settings=self.settings,
                max_group=max_group,
            )
            for entry, result in zip(pending, batch):
                results[entry[0]] = result
        return results, order


def _seeded_search(control_set, target, upper_ns, hyper, settings, seed):
    """Minimum-time search from ``seed``, guarded best-of against cold.

    A converged seeded search is accepted outright — it met the same
    fidelity threshold a cold search would have.  Otherwise the cold
    search runs too and whichever result is better wins (convergence
    first, then final fidelity), with the loser's iterations, memo hits
    and abandoned probes merged into the returned result so latency
    accounting stays honest.
    """
    perf = get_perf_registry()
    seeded = minimum_time_pulse(
        control_set,
        target,
        upper_bound_ns=upper_ns,
        hyperparameters=hyper,
        settings=settings,
        warm_start=seed,
    )
    perf.count("grape.warm_start.seeded_iterations", seeded.total_iterations)
    if seeded.converged:
        perf.count("grape.warm_start.accepted")
        return seeded
    cold = minimum_time_pulse(
        control_set,
        target,
        upper_bound_ns=upper_ns,
        hyperparameters=hyper,
        settings=settings,
    )
    perf.count("grape.warm_start.cold_rerun_iterations", cold.total_iterations)
    if cold.converged or cold.fidelity >= seeded.fidelity:
        perf.count("grape.warm_start.rejected")
        winner, loser = cold, seeded
    else:
        perf.count("grape.warm_start.accepted")
        winner, loser = seeded, cold
    return replace(
        winner,
        total_iterations=winner.total_iterations + loser.total_iterations,
        grape_calls=winner.grape_calls + loser.grape_calls,
        wall_time_s=winner.wall_time_s + loser.wall_time_s,
        probes=[*seeded.probes, *cold.probes],
        memo_hits=winner.memo_hits + loser.memo_hits,
        abandoned=winner.abandoned + loser.abandoned,
        abandoned_iterations=winner.abandoned_iterations + loser.abandoned_iterations,
    )


def search_job(job):
    """The pure minimum-time search of one :class:`~repro.pipeline.jobs
    .BlockJob`: guarded from ``job.seed`` when it has one, cold otherwise.

    Reads nothing but the job and touches no cache, so any process can
    run it.
    """
    control_set = build_control_set(job.device, job.device_qubits)
    upper = max(job.gate_based_ns, job.settings.resolved_dt())
    if job.seed is None:
        return minimum_time_pulse(
            control_set,
            job.target,
            upper_bound_ns=upper,
            hyperparameters=job.hyperparameters,
            settings=job.settings,
        )
    return _seeded_search(
        control_set,
        job.target,
        upper,
        job.hyperparameters,
        job.settings,
        job.seed,
    )


def compile_jobs(jobs: list, cache, executor) -> list:
    """Compile block jobs against the caller's ``cache``.

    The one home of the per-block sequence (cache hit, warm-start seed,
    search, strictly-not-worse judgment) behind :meth:`BlockPulseCompiler
    .compile_block`, :meth:`~BlockPulseCompiler.compile_job` and every
    executor's fixed-block route (the batch scheduler, fleet included): cache hits and warm-start seeds are resolved here,
    before any result is written, the cold jobs travel as seed-carrying
    pure searches through ``executor``'s ``run_tasks``, and the results
    are cached and judged here in job order.
    A job repeating an earlier cold job's key is served from that result,
    as a cache hit — exactly what compiling the jobs one by one gives.
    """
    outcomes: list = [None] * len(jobs)
    compilers: list = []
    cold: dict = {}  # key -> index of the job that searches it
    searches: list = []
    for i, job in enumerate(jobs):
        compiler = BlockPulseCompiler(
            job.device,
            job.settings,
            job.hyperparameters,
            cache,
            warm_start=job.warm_start,
        )
        compilers.append(compiler)
        if job.key in cold:
            continue
        cached = cache.get(job.key)
        if cached is not None:
            cache.annotate_target(job.key, job.target)
            outcomes[i] = compiler._cache_hit_outcome(
                job.device_qubits, job.gate_based_ns, cached
            )
            continue
        control_set = build_control_set(job.device, job.device_qubits)
        seed = compiler._find_seed(
            job.key, job.target, control_set, job.gate_based_ns
        )
        cold[job.key] = i
        searches.append(replace(job, seed=seed))
    searched = executor.run_tasks(search_job, searches) if searches else []
    results = dict(zip(cold.values(), searched))

    for i, job in enumerate(jobs):
        if outcomes[i] is not None:
            continue
        compiler = compilers[i]
        if i in results:
            outcomes[i] = compiler._fresh_outcome(
                job.device_qubits, job.gate_based_ns, job.key, results[i], job.target
            )
            continue
        # A repeat of an earlier cold job's key: its result is cached now.
        cache.annotate_target(job.key, job.target)
        outcomes[i] = compiler._cache_hit_outcome(
            job.device_qubits, job.gate_based_ns, cache.get(job.key)
        )
    return outcomes


def default_device_for(circuit: QuantumCircuit) -> GmonDevice:
    """The default gmon grid sized for ``circuit``."""
    return GmonDevice.grid_for(circuit.num_qubits)


def gate_based_program(circuit: QuantumCircuit):
    """The pure lookup-table pulse program for a bound circuit.

    Used both by the gate-based baseline and as the strictly-not-worse
    fallback of every GRAPE-based strategy: pulse blocks are atomic across
    their qubits, so a blocked program can occasionally lose a little
    scheduling slack relative to the gate-level ASAP schedule; whenever that
    overhead eats the GRAPE gains, compilers fall back to this program
    (the paper's no-delay blocking criterion, section 5.2).
    """
    return lookup_program(circuit)
