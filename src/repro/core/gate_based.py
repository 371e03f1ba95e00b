"""Gate-based (lookup-table) compilation — the baseline.

"A lookup table maps each gate to a sequence of machine-level control pulses
so that compilation simply amounts to concatenating the pulses corresponding
to each gate" (paper section 1).  Pulse durations come from Table 1; gates
are ASAP-parallel-scheduled so the reported duration is the critical path.

The compiler behind the service's ``"gate"`` strategy is a thin
configuration of the shared
:class:`~repro.pipeline.pipeline.CompilationPipeline`:
``bind → gate-schedule → assemble`` with no fallback (it *is* the floor
every other strategy falls back to).
"""

from __future__ import annotations

import time
from typing import Sequence

from repro.circuits.circuit import QuantumCircuit
from repro.core.results import CompiledPulse
from repro.pipeline.strategies import gate_based_pipeline


class _GateBasedCompiler:
    """The paper's baseline compiler.

    Stateless: every gate's pulse is a pre-calibrated lookup, so runtime
    latency is just the (microsecond-scale) concatenation cost.  An optional
    transpile ``pass_manager`` is prepended to the pipeline for callers that
    want decomposition/routing folded into the same flow.
    """

    method = "gate"

    def __init__(self, pass_manager=None):
        self.pipeline = gate_based_pipeline(pass_manager)

    def compile(self, circuit: QuantumCircuit) -> CompiledPulse:
        """Compile a fully bound circuit by lookup + concatenation."""
        return self._run(circuit, None)

    def compile_parametrized(
        self, circuit: QuantumCircuit, values: Sequence[float]
    ) -> CompiledPulse:
        """Bind ``values`` then compile — one variational iteration."""
        return self._run(circuit, values)

    def _run(self, circuit: QuantumCircuit, values) -> CompiledPulse:
        start = time.perf_counter()
        context = self.pipeline.run(circuit, values=values)
        elapsed = time.perf_counter() - start
        return CompiledPulse(
            method=self.method,
            program=context.program,
            pulse_duration_ns=context.program.duration_ns,
            runtime_latency_s=elapsed,
            runtime_iterations=0,
            blocks_compiled=len(context.schedules),
            metadata={"stage_timings": context.stage_timing_dict()},
        )
