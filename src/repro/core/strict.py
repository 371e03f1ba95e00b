"""Strict partial compilation (paper section 6).

Pre-compute optimal GRAPE pulses for every parametrization-independent
(Fixed) subcircuit once; at run time, concatenate those precompiled pulses
with lookup pulses for the parameter-dependent ``Rz(θᵢ)`` gates.  Runtime
compilation latency is therefore the same as gate-based compilation —
essentially zero — while the Fixed blocks run at GRAPE speed, so strict
partial compilation is *strictly better* than gate-based compilation.

The precompute phase is a configuration of the shared
:class:`~repro.pipeline.pipeline.CompilationPipeline`:
``block(isolate θ) → pulse``, where Fixed blocks flow through the pluggable
block executor (they are independent GRAPE searches) and each isolated
``Rz(θ)`` maps straight to a lookup-pulse plan entry.
"""

from __future__ import annotations

import time
from typing import Sequence

from repro.circuits.circuit import QuantumCircuit
from repro.config import GATE_DURATIONS_NS
from repro.core.cache import PulseCache
from repro.core.compiler import BlockPulseCompiler, default_device_for, gate_based_program
from repro.core.results import CompiledPulse, PrecompileReport
from repro.errors import CompilationError
from repro.pipeline.stages import BlockTask
from repro.pipeline.strategies import strict_precompile_pipeline
from repro.pulse.device import GmonDevice
from repro.pulse.grape.engine import GrapeHyperparameters, GrapeSettings
from repro.pulse.schedule import PulseProgram, lookup_schedule
from repro.service.config import ServiceConfig, warn_deprecated


def _lookup_plan_entry(task: BlockTask) -> tuple:
    """Runtime plan slot for one isolated ``Rz(θ)`` (picklable handler)."""
    inst = task.instruction
    return ("lookup", inst.qubits, inst.gate.name, inst.gate.params[0])


class _StrictPartialCompiler:
    """Precompiled Fixed blocks + lookup ``Rz(θ)`` pulses."""

    method = "strict"

    def __init__(
        self,
        circuit: QuantumCircuit,
        device: GmonDevice,
        plan: list,
        report: PrecompileReport,
    ):
        self.circuit = circuit
        self.device = device
        self._plan = plan  # entries: ("pulse", schedule) | ("lookup", qubits, gate, expr)
        self.report = report
        self.parameters = circuit.parameters

    # -- construction -------------------------------------------------------
    @classmethod
    def precompile(
        cls,
        circuit: QuantumCircuit,
        device: GmonDevice | None = None,
        settings: GrapeSettings | None = None,
        hyperparameters: GrapeHyperparameters | None = None,
        max_block_width: int | None = None,
        cache: PulseCache | None = None,
        executor=None,
    ) -> "StrictPartialCompiler":
        """Slice ``circuit`` and GRAPE-precompile every Fixed block.

        This is the pre-computation phase; its cost is recorded in
        :attr:`report` and is *not* charged to runtime compilation.
        ``executor`` parallelizes the independent Fixed-block GRAPE
        searches (name or executor instance; ``None`` = the ``auto`` default).
        """
        device = device or default_device_for(circuit)
        block_compiler = BlockPulseCompiler(
            device,
            settings,
            hyperparameters,
            cache if cache is not None else PulseCache(),
        )
        # Parametrized gates become isolated singleton blocks; the Fixed
        # gates between them aggregate into maximal parametrization-
        # independent subcircuits with per-qubit barriers (the DAG-aware
        # reading of the paper's Figure 3b, which avoids serializing
        # unrelated qubits across an Rz(θ)).
        pipeline = strict_precompile_pipeline(
            block_compiler, _lookup_plan_entry, max_block_width, executor
        )
        start = time.perf_counter()
        context = pipeline.run(circuit)
        return cls._from_context(
            circuit, device, block_compiler, context, time.perf_counter() - start
        )

    @classmethod
    def precompile_many(
        cls,
        circuits: Sequence[QuantumCircuit],
        device: GmonDevice | None = None,
        settings: GrapeSettings | None = None,
        hyperparameters: GrapeHyperparameters | None = None,
        max_block_width: int | None = None,
        cache: PulseCache | None = None,
        executor=None,
        state=None,
        config: ServiceConfig | None = None,
    ) -> list:
        """Precompile a *batch* of ansätze, sharing Fixed blocks across them.

        All circuits flow through one pipeline whose pulse stage is a single
        :class:`~repro.pipeline.scheduler.BlockScheduler` pass: Fixed blocks
        with the same unitary fingerprint and control context — within one
        ansatz or across ansätze — run GRAPE exactly once.  ``state`` (a
        :class:`~repro.pipeline.scheduler.SchedulerState`) extends the dedup
        across *calls*: pass the same state object to successive
        ``precompile_many`` invocations (or share it with a
        :class:`~repro.pipeline.session.VariationalSession`) and later
        batches pay only for blocks never seen before.

        ``config`` (a :class:`~repro.service.ServiceConfig`) supplies the
        warm-start and batched-GRAPE settings; ``None`` uses the defaults.

        Returns one compiler per circuit, in order; each report's
        ``wall_time_s`` is the shared batch wall time and its
        ``metadata["scheduler"]`` the batch dedup accounting.
        """
        circuits = list(circuits)
        if not circuits:
            return []
        device = device or default_device_for(
            max(circuits, key=lambda c: c.num_qubits)
        )
        config = config if config is not None else ServiceConfig()
        block_compiler = BlockPulseCompiler(
            device,
            settings,
            hyperparameters,
            cache if cache is not None else PulseCache(),
            warm_start=config.warm_start,
            warm_start_max_dist=config.warm_start_max_dist,
        )
        pipeline = strict_precompile_pipeline(
            block_compiler, _lookup_plan_entry, max_block_width, executor
        )
        start = time.perf_counter()
        contexts, report = pipeline.run_many(
            circuits,
            state=state,
            grape_batch=config.grape_batch,
            grape_batch_size=config.grape_batch_size,
        )
        elapsed = time.perf_counter() - start
        batch_metadata = {
            "scheduler": report.as_dict() if report is not None else None,
            "batch": len(circuits),
        }
        return [
            cls._from_context(
                circuit, device, block_compiler, context, elapsed, batch_metadata
            )
            for circuit, context in zip(circuits, contexts)
        ]

    @classmethod
    def _from_context(
        cls,
        circuit: QuantumCircuit,
        device: GmonDevice,
        block_compiler: BlockPulseCompiler,
        context,
        wall_time_s: float,
        extra_metadata: dict | None = None,
    ) -> "StrictPartialCompiler":
        """Fold one precompile pipeline context into a compiler instance."""
        iterations = 0
        blocks_done = 0
        cache_hits = 0
        plan: list[tuple] = []
        for task, result in zip(context.tasks, context.block_results):
            if task.kind == "parametrized":
                plan.append(result)
                continue
            iterations += result.iterations
            blocks_done += 1
            cache_hits += int(result.cache_hit)
            plan.append(("pulse", result.schedule))
        metadata = {
            "blocks": context.metadata["blocks"],
            "stage_timings": context.stage_timing_dict(),
        }
        if extra_metadata:
            metadata.update(extra_metadata)
        report = PrecompileReport(
            method=cls.method,
            wall_time_s=wall_time_s,
            grape_iterations=iterations,
            blocks_precompiled=blocks_done,
            parametrized_blocks=sum(1 for p in plan if p[0] == "lookup"),
            cache_hits=cache_hits,
            executor=context.executor_info.get("executor", "serial"),
            cache_stats=block_compiler.cache.stats(),
            metadata=metadata,
        )
        return cls(circuit, device, plan, report)

    # -- runtime -----------------------------------------------------------
    def compile(self, values: Sequence[float] | dict) -> CompiledPulse:
        """Compile for one parametrization — pure concatenation, no GRAPE.

        ``values`` binds the circuit's parameters (sequence in index order
        or a mapping); binding only affects the *angles* of the lookup
        pulses, not any duration, so this is exactly the gate-based runtime
        cost.
        """
        if not isinstance(values, dict):
            values = dict(zip(self.parameters, values))
        missing = [p.name for p in self.parameters if p not in values]
        if missing:
            raise CompilationError(f"missing values for parameters {missing}")
        start = time.perf_counter()
        schedules = []
        for entry in self._plan:
            if entry[0] == "pulse":
                schedules.append(entry[1])
            else:
                _, qubits, gate_name, _expr = entry
                duration = GATE_DURATIONS_NS.get(gate_name, GATE_DURATIONS_NS["rz"])
                schedules.append(lookup_schedule(qubits, duration))
        program = PulseProgram.sequence(schedules)
        # Strictly-better guarantee (paper section 6): never exceed the
        # lookup-table baseline for this parametrization.
        used_fallback = False
        baseline = gate_based_program(self.circuit.bind_parameters(values))
        if baseline.duration_ns < program.duration_ns:
            program = baseline
            used_fallback = True
        elapsed = time.perf_counter() - start
        return CompiledPulse(
            method=self.method,
            program=program,
            pulse_duration_ns=program.duration_ns,
            runtime_latency_s=elapsed,
            runtime_iterations=0,
            blocks_compiled=len(schedules),
            metadata={
                "precompiled_blocks": self.report.blocks_precompiled,
                "program_fallback": used_fallback,
            },
        )


class StrictPartialCompiler(_StrictPartialCompiler):
    """Deprecated constructor shim for the ``"strict-partial"`` strategy.

    The implementation lives in :class:`_StrictPartialCompiler`, which the
    strategy registry serves as ``"strict-partial"``; this name remains
    only so pre-service callers keep working.  Each construction — direct
    or via ``precompile`` / ``precompile_many`` (classmethods construct
    through ``cls``) — emits one
    :class:`~repro.service.config.ReproDeprecationWarning`.  Use
    ``CompilationService.compile(CompileRequest(strategy="strict-partial"))``.
    """

    def __init__(self, *args, **kwargs):
        warn_deprecated("StrictPartialCompiler", "strict-partial")
        super().__init__(*args, **kwargs)
