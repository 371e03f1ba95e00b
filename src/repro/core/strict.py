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
``Rz(θ)`` maps straight to a lookup-pulse plan entry.  Nothing the runtime
returns depends on θ — a lookup pulse's duration comes from its gate name —
so the program and its strictly-not-worse fallback are decided once, when
the compiler is built.
"""

from __future__ import annotations

import functools
import time
from typing import Sequence

from repro.circuits.circuit import QuantumCircuit
from repro.config import GATE_DURATIONS_NS
from repro.core.cache import PulseCache
from repro.core.compiler import (
    BlockPulseCompiler,
    default_device_for,
    gate_based_program,
    parameter_values,
)
from repro.core.results import CompiledPulse, PrecompileReport
from repro.pipeline.stages import BlockTask
from repro.pipeline.strategies import strict_precompile_pipeline
from repro.pulse.device import GmonDevice
from repro.pulse.grape.engine import GrapeHyperparameters, GrapeSettings
from repro.pulse.schedule import PulseProgram, lookup_schedule
from repro.service.config import ServiceConfig


def _lookup_plan_entry(task: BlockTask) -> tuple:
    """Runtime plan slot for one isolated ``Rz(θ)`` (picklable handler)."""
    inst = task.instruction
    return ("lookup", inst.qubits, inst.gate.name, inst.gate.params[0])


@functools.cache
def _lookup_pulse(qubits: tuple, gate_name: str):
    """The lookup pulse of a ``("lookup", qubits, gate_name, θ)`` plan slot.

    Its duration depends on the gate name only, never on θ, so it is
    built once; every result shares its read-only controls.
    """
    duration = GATE_DURATIONS_NS.get(gate_name, GATE_DURATIONS_NS["rz"])
    schedule = lookup_schedule(qubits, duration)
    schedule.controls.flags.writeable = False
    return schedule


class _StrictPartialCompiler:
    """Precompiled Fixed blocks + lookup ``Rz(θ)`` pulses.

    ``gate_based_ns`` is the circuit's lookup-table duration when a
    blocking plan supplied it; without one the compiler takes it from the
    gate-based program of the symbolic circuit.  The returned program is
    the blocked one, or that gate-based program when it is shorter (paper
    section 6's strictly-better guarantee).
    """

    method = "strict"

    def __init__(
        self,
        circuit: QuantumCircuit,
        device: GmonDevice,
        plan: list,
        report: PrecompileReport,
        gate_based_ns: float | None = None,
    ):
        self.circuit = circuit
        self.device = device
        self._plan = plan  # entries: ("pulse", schedule) | ("lookup", qubits, gate, expr)
        self.report = report
        self.parameters = circuit.parameters
        schedules = [
            entry[1] if entry[0] == "pulse" else _lookup_pulse(*entry[1:3])
            for entry in plan
        ]
        program = PulseProgram.sequence(schedules)
        baseline = None
        if gate_based_ns is None:
            baseline = gate_based_program(circuit)
            gate_based_ns = baseline.duration_ns
        self._fallback = gate_based_ns < program.duration_ns
        if self._fallback:
            program = baseline if baseline is not None else gate_based_program(circuit)
            for placed in program.placed:
                placed.schedule.controls.flags.writeable = False
        self._program = program

    # -- construction -------------------------------------------------------
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
        config: ServiceConfig | None = None,
        plan_cache=None,
    ) -> list:
        """Precompile a *batch* of ansätze, sharing Fixed blocks across them.

        This is the pre-computation phase; its cost is recorded in each
        compiler's :attr:`report` and is *not* charged to runtime
        compilation.  All circuits flow through one pipeline whose pulse stage is a single
        :class:`~repro.pipeline.scheduler.BlockScheduler` pass: Fixed blocks
        with the same unitary fingerprint and control context — within one
        ansatz or across ansätze — run GRAPE exactly once.  ``cache``
        extends the dedup across *calls*: pass the same cache to successive
        ``precompile_many`` invocations (the service passes its own) and
        later batches pay only for blocks never seen before.  One ansatz
        is the batch ``[circuit]``.

        ``config`` (a :class:`~repro.service.ServiceConfig`) supplies the
        warm-start setting; ``None`` uses the default.  ``plan_cache`` (a
        :class:`~repro.pipeline.plan.PlanCache`) replays each ansatz's
        isolate-θ blocking, Fixed-block keys and gate-based duration
        instead of recomputing them; the Fixed blocks still go through
        one scheduler pass.

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
        )
        # Parametrized gates become isolated singleton blocks; the Fixed
        # gates between them aggregate into maximal parametrization-
        # independent subcircuits with per-qubit barriers (the DAG-aware
        # reading of the paper's Figure 3b, which avoids serializing
        # unrelated qubits across an Rz(θ)).
        pipeline = strict_precompile_pipeline(
            block_compiler, _lookup_plan_entry, max_block_width, executor, plan_cache
        )
        start = time.perf_counter()
        contexts, report = pipeline.run_many(circuits)
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
    ) -> "_StrictPartialCompiler":
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
        return cls(circuit, device, plan, report, context.gate_based_ns)

    # -- runtime -----------------------------------------------------------
    def compile(self, values: Sequence[float] | dict) -> CompiledPulse:
        """Compile for one parametrization — pure concatenation, no GRAPE.

        ``values`` binds the circuit's parameters (a sequence with one
        value per parameter, in index order, or a mapping).  Binding only
        affects the *angles* of the lookup pulses, not any duration, so
        this checks the values and returns the program decided at
        construction: exactly the gate-based runtime cost.
        """
        parameter_values(self.parameters, values)
        start = time.perf_counter()
        program = PulseProgram(list(self._program.placed))
        elapsed = time.perf_counter() - start
        return CompiledPulse(
            method=self.method,
            program=program,
            pulse_duration_ns=program.duration_ns,
            runtime_latency_s=elapsed,
            runtime_iterations=0,
            blocks_compiled=len(self._plan),
            metadata={
                "precompiled_blocks": self.report.blocks_precompiled,
                "program_fallback": self._fallback,
            },
        )
