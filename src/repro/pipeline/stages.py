"""Composable pipeline stages and the context they thread.

A stage is a named unit of work over a mutable :class:`PipelineContext`:
transpile rewrites the circuit, bind produces the bound working circuit,
blocking partitions it into :class:`BlockTask`\\ s, the pulse stage maps a
block handler over those tasks through a :class:`BlockExecutor`, and
assemble sequences the resulting schedules into a
:class:`~repro.pulse.schedule.PulseProgram` with the paper's
strictly-not-worse fallback.  Strategies differ only in which stages they
stack and which handlers they plug in — the flow itself is shared.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable

from repro.blocking.aggregate import aggregate_blocks
from repro.circuits.circuit import QuantumCircuit
from repro.config import get_preset
from repro.errors import CompilationError, PipelineError
from repro.pipeline.executors import BlockExecutor, SerialExecutor
from repro.pulse.schedule import PulseProgram, lookup_schedule
from repro.transpile.schedule import asap_schedule


@dataclass
class BlockTask:
    """One independent unit of per-block work produced by blocking.

    Attributes
    ----------
    index:
        Position in the pipeline's global block order (results stay
        aligned with tasks).
    subcircuit:
        Bound or symbolic local circuit on qubits ``0…k-1``; ``None`` for
        isolated parametrized singletons, which carry ``instruction``
        instead.
    device_qubits:
        The device qubits behind the local indices (sorted ascending).
    kind:
        ``"fixed"`` (parametrization-independent, GRAPE-compilable now) or
        ``"parametrized"`` (handled by the strategy's parametrized handler).
    instruction:
        The original instruction for isolated singleton blocks (strict
        partial compilation's ``Rz(θ)`` gates).
    local_index:
        The block's index *within its own blocked circuit* — restarts per
        slice in slicer mode.  Strategies that derive per-block seeds use
        this so adding or removing earlier slices does not shift the
        randomness of later ones.
    dedup_key:
        Precomputed scheduler/cache identity of the block, valid only when
        ``dedup_key_known`` is set.  Plan replay
        (:mod:`repro.pipeline.plan`) attaches keys it already paid for;
        the batch scheduler computes the key itself for tasks that arrive
        without one.  ``None`` with ``dedup_key_known=True`` marks a
        trivial (zero-duration) block.
    target:
        The block's target unitary when computing ``dedup_key`` built it
        (:meth:`~repro.core.compiler.BlockPulseCompiler.task_identity`),
        else ``None``; the compile route reuses it instead of building
        the matrix again.
    """

    index: int
    subcircuit: QuantumCircuit | None
    device_qubits: tuple
    kind: str = "fixed"
    instruction: Any = None
    local_index: int = 0
    dedup_key: Any = None
    dedup_key_known: bool = False
    target: Any = None


@dataclass
class PipelineContext:
    """Everything a compilation run accumulates while flowing through stages."""

    circuit: QuantumCircuit
    values: Any = None
    bound: QuantumCircuit | None = None
    blocked: list = field(default_factory=list)
    tasks: list | None = None
    block_results: list | None = None
    schedules: list | None = None
    program: PulseProgram | None = None
    used_fallback: bool = False
    executor_info: dict = field(default_factory=dict)
    stage_timings: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    @property
    def working(self) -> QuantumCircuit:
        """The circuit later stages operate on: bound if binding ran."""
        return self.bound if self.bound is not None else self.circuit

    def stage_timing_dict(self) -> dict:
        """Stage name → seconds, in execution order (telemetry surface)."""
        return {name: round(seconds, 6) for name, seconds in self.stage_timings}


class Stage:
    """One named circuit→pulse pipeline step operating on the context."""

    name = "stage"

    def run(self, context: PipelineContext) -> None:
        raise NotImplementedError


class TranspileStage(Stage):
    """Rewrite the input circuit with a transpile pass manager."""

    name = "transpile"

    def __init__(self, pass_manager):
        self.pass_manager = pass_manager

    def run(self, context: PipelineContext) -> None:
        context.circuit = self.pass_manager.run(context.circuit)


class BindStage(Stage):
    """Bind parameter values and require a fully bound working circuit."""

    name = "bind"

    def run(self, context: PipelineContext) -> None:
        circuit = context.circuit
        if context.values is not None:
            circuit = circuit.bind_parameters(context.values)
        if circuit.is_parameterized():
            raise CompilationError("bind parameters before compiling")
        context.bound = circuit


class BlockingStage(Stage):
    """Partition the working circuit into width-bounded block tasks.

    Three strategy-selected modes share the aggregation core:

    * plain (default) — one :func:`aggregate_blocks` call, every block a
      fixed task (full GRAPE over a bound circuit);
    * ``isolate_parametrized`` — parameter-dependent gates become singleton
      parametrized tasks with per-qubit barriers (strict partial
      compilation, paper Figure 3b);
    * ``slicer`` — the circuit is first cut into slices (flexible partial
      compilation's single-θ slices, Figure 3c), each sliced piece blocked
      independently; blocks containing a parametrized gate become
      parametrized tasks.
    """

    name = "block"

    def __init__(
        self,
        max_width: int | None = None,
        slicer: Callable | None = None,
        isolate_parametrized: bool = False,
    ):
        if slicer is not None and isolate_parametrized:
            raise PipelineError("slicer and isolate_parametrized are exclusive")
        self.max_width = max_width
        self.slicer = slicer
        self.isolate_parametrized = isolate_parametrized

    def _width(self) -> int:
        if self.max_width is not None:
            return self.max_width
        return get_preset().max_block_qubits

    def run(self, context: PipelineContext) -> None:
        circuit = context.working
        width = self._width()
        tasks: list[BlockTask] = []
        context.blocked = []

        if self.isolate_parametrized:
            parametrized = {
                idx for idx, inst in enumerate(circuit) if inst.parameters
            }
            for idx in parametrized:
                params = circuit[idx].parameters
                if len(params) > 1:
                    names = sorted(p.name for p in params)
                    raise CompilationError(
                        f"gate {circuit[idx]!r} depends on several parameters {names}"
                    )
            blocked = aggregate_blocks(circuit, width, isolate=parametrized)
            context.blocked.append(blocked)
            for block in blocked.blocks:
                if block.instruction_indices[0] in parametrized:
                    inst = circuit[block.instruction_indices[0]]
                    tasks.append(
                        BlockTask(
                            index=len(tasks),
                            subcircuit=None,
                            device_qubits=tuple(sorted(block.qubits)),
                            kind="parametrized",
                            instruction=inst,
                            local_index=block.index,
                        )
                    )
                else:
                    sub, device_qubits = blocked.local_circuit(block)
                    tasks.append(
                        BlockTask(
                            len(tasks), sub, device_qubits, local_index=block.index
                        )
                    )
        elif self.slicer is not None:
            for piece in self.slicer(circuit):
                blocked = aggregate_blocks(piece.circuit, width)
                context.blocked.append(blocked)
                for block in blocked.blocks:
                    sub, device_qubits = blocked.local_circuit(block)
                    kind = "parametrized" if sub.is_parameterized() else "fixed"
                    tasks.append(
                        BlockTask(
                            len(tasks),
                            sub,
                            device_qubits,
                            kind,
                            local_index=block.index,
                        )
                    )
        else:
            blocked = aggregate_blocks(circuit, width)
            context.blocked.append(blocked)
            for block in blocked.blocks:
                sub, device_qubits = blocked.local_circuit(block)
                tasks.append(
                    BlockTask(len(tasks), sub, device_qubits, local_index=block.index)
                )

        context.tasks = tasks
        context.metadata["blocks"] = len(tasks)


def _dispatch_task(block_compiler, parametrized_handler, task: BlockTask):
    """Run one closure-map task: a parametrized task through its handler,
    a fixed one (a trivial block) through ``block_compiler``."""
    if task.kind == "parametrized":
        if parametrized_handler is None:
            raise PipelineError(
                f"block task {task.index} is parametrized but the pipeline "
                "has no parametrized handler"
            )
        return parametrized_handler(task)
    return block_compiler.compile_block(task.subcircuit, task.device_qubits)


class PulseStage(Stage):
    """Compile the blocked tasks through the configured executor.

    Fixed tasks become :class:`~repro.pipeline.jobs.BlockJob` descriptors
    of ``block_compiler`` (a
    :class:`~repro.core.compiler.BlockPulseCompiler`) and go through
    :func:`~repro.core.compiler.compile_jobs`: hits and warm-start seeds
    resolve against the compiler's cache, the cold searches run through
    the executor's ``run_tasks``, and the results are cached and judged
    here in block order.  The executor's closure ``map`` carries only
    ``parametrized_handler``'s parameter-dependent tasks and trivial
    (empty / zero-duration) blocks.  The batch scheduler
    (:class:`repro.pipeline.scheduler.BlockScheduler`) reads
    ``block_compiler`` to compute block identities and fan deduplicated
    results back out.
    """

    name = "pulse"

    def __init__(
        self,
        block_compiler,
        executor: BlockExecutor | None = None,
        parametrized_handler: Callable | None = None,
    ):
        self.block_compiler = block_compiler
        self.parametrized_handler = parametrized_handler
        self.executor = executor if executor is not None else SerialExecutor()
        self._dispatch = partial(
            _dispatch_task, block_compiler, parametrized_handler
        )

    def _run_tasks(self, tasks: list) -> list:
        """Fixed blocks as jobs, everything else through the closure map."""
        from repro.core.compiler import compile_jobs

        jobs: list = []
        job_idx: list = []
        for i, task in enumerate(tasks):
            if task.kind != "fixed":
                continue
            job = self.block_compiler.make_job(
                task.subcircuit, task.device_qubits
            )
            if job is not None:  # None: a trivial block, compiled inline
                jobs.append(job)
                job_idx.append(i)
        results: list = [None] * len(tasks)
        outcomes = compile_jobs(jobs, self.block_compiler.cache, self.executor)
        for i, outcome in zip(job_idx, outcomes):
            results[i] = outcome
        rest = [i for i, result in enumerate(results) if result is None]
        mapped = self.executor.map(self._dispatch, [tasks[i] for i in rest])
        for i, result in zip(rest, mapped):
            results[i] = result
        return results

    def run(self, context: PipelineContext) -> None:
        if context.tasks is None:
            raise PipelineError("a blocking stage must run before the pulse stage")
        cache = self.block_compiler.cache
        # Pin warm-start candidates to the pre-pass cache state so the
        # compiled pulses do not depend on which executor ran the map
        # (see PulseCache.freeze_neighbors).
        cache.freeze_neighbors()
        try:
            context.block_results = self._run_tasks(context.tasks)
        finally:
            cache.thaw_neighbors()
        context.executor_info = self.executor.describe()


def lookup_schedules(circuit: QuantumCircuit) -> list:
    """Per-gate Table-1 lookup pulses for a bound circuit, ASAP-scheduled."""
    scheduled = asap_schedule(circuit)
    return [
        lookup_schedule(entry.instruction.qubits, entry.duration_ns)
        for entry in scheduled.entries
        if entry.duration_ns > 0
    ]


def lookup_program(circuit: QuantumCircuit) -> PulseProgram:
    """The pure lookup-table pulse program for a bound circuit.

    The gate-based baseline, and the strictly-not-worse floor every GRAPE
    strategy falls back to (paper section 5.2).
    """
    return PulseProgram.sequence(lookup_schedules(circuit))


class GateScheduleStage(Stage):
    """Produce per-gate lookup schedules for the bound working circuit."""

    name = "gate-schedule"

    def run(self, context: PipelineContext) -> None:
        context.schedules = lookup_schedules(context.working)


class AssembleStage(Stage):
    """Sequence block schedules into the final program.

    With ``fallback=True`` the assembled program is compared against the
    lookup-table baseline of the working circuit and replaced by it when
    blocking cost more slack than GRAPE recovered — the paper's guarantee
    that pulse compilation is never worse than gate-based compilation.
    """

    name = "assemble"

    def __init__(self, fallback: bool = True):
        self.fallback = fallback

    def run(self, context: PipelineContext) -> None:
        schedules = context.schedules
        if schedules is None:
            if context.block_results is None:
                raise PipelineError(
                    "a pulse or gate-schedule stage must run before assembly"
                )
            schedules = [outcome.schedule for outcome in context.block_results]
            context.schedules = schedules
        program = PulseProgram.sequence(schedules)
        context.used_fallback = False
        if self.fallback:
            baseline = lookup_program(context.working)
            if baseline.duration_ns < program.duration_ns:
                program = baseline
                context.used_fallback = True
        context.program = program
