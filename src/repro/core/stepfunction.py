"""Step-function gate-to-pulse lookup (the paper's related-work baseline).

The paper's compilation model maps each gate to one fixed pulse, but notes
that "experimental implementations have already moved directionally
towards GRAPE-style" compilation: in Barends et al. a parametrized
``U(ϕ)`` gate has *five different pulse sequence decompositions*, chosen
by which range the runtime angle falls in (breakpoints
``[-π, -2.25, -0.25, 0.25, 2.25, π]``), and McKay et al.'s "efficient Z
gates" make small Z rotations virtually free.  This module implements that
middle ground: a :class:`StepFunctionTable` maps (gate, bound angle) to a
calibrated pulse duration, and the service's ``"step-function"``
strategy is the corresponding drop-in alternative to the ``"gate"``
strategy.

It remains a lookup table — zero compilation latency — but its pulse
durations depend on the runtime parametrization, which narrows (without
closing) the gap to GRAPE on rotation-heavy circuits.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Sequence

from repro.circuits.circuit import QuantumCircuit
from repro.config import GATE_DURATIONS_NS
from repro.core.results import CompiledPulse
from repro.errors import CompilationError
from repro.pulse.schedule import PulseProgram, lookup_schedule

__all__ = [
    "AngleRange",
    "BARENDS_BREAKPOINTS",
    "StepFunctionTable",
    "default_step_table",
]

#: The angle-range breakpoints of Barends et al. quoted in the paper §3.
BARENDS_BREAKPOINTS = (-math.pi, -2.25, -0.25, 0.25, 2.25, math.pi)

_TWO_PI = 2 * math.pi


@dataclass(frozen=True)
class AngleRange:
    """One calibrated entry: angles in ``[lo, hi)`` cost ``duration_ns``."""

    lo: float
    hi: float
    duration_ns: float

    def __post_init__(self):
        if self.hi <= self.lo:
            raise CompilationError(f"empty angle range [{self.lo}, {self.hi})")
        if self.duration_ns < 0:
            raise CompilationError("pulse durations cannot be negative")

    def contains(self, angle: float) -> bool:
        return self.lo <= angle < self.hi


class StepFunctionTable:
    """Gate-name → angle-range → pulse-duration lookup.

    Angles are wrapped to ``(-π, π]`` before lookup.  Gates without a
    registered range list fall back to the flat Table-1 duration, so the
    table only needs entries for the parametrized gates it refines.
    """

    def __init__(self, ranges: dict | None = None):
        self._ranges: dict = {}
        for name, entries in (ranges or {}).items():
            self.register(name, entries)

    def register(self, gate_name: str, entries: Sequence[AngleRange]) -> None:
        """Register the calibrated ranges for ``gate_name``.

        The ranges must tile ``(-π, π]`` with no gaps or overlaps, so every
        runtime angle resolves to exactly one pulse decomposition.
        """
        ordered = sorted(entries, key=lambda r: r.lo)
        if not ordered:
            raise CompilationError(f"no ranges given for gate {gate_name!r}")
        if not math.isclose(ordered[0].lo, -math.pi, abs_tol=1e-9):
            raise CompilationError(f"{gate_name}: ranges must start at -π")
        if not math.isclose(ordered[-1].hi, math.pi, abs_tol=1e-9):
            raise CompilationError(f"{gate_name}: ranges must end at π")
        for left, right in zip(ordered, ordered[1:]):
            if not math.isclose(left.hi, right.lo, abs_tol=1e-9):
                raise CompilationError(
                    f"{gate_name}: gap or overlap at angle {left.hi:g}"
                )
        self._ranges[gate_name] = tuple(ordered)

    @property
    def refined_gates(self) -> tuple:
        """Gate names with angle-dependent calibrations."""
        return tuple(sorted(self._ranges))

    @staticmethod
    def wrap(angle: float) -> float:
        """Wrap any angle into ``(-π, π]``."""
        wrapped = (angle + math.pi) % _TWO_PI - math.pi
        if wrapped == -math.pi:
            wrapped = math.pi
        return wrapped

    def duration_ns(self, gate_name: str, angle: float | None = None) -> float:
        """Pulse duration for ``gate_name`` at ``angle`` (None = unparametrized)."""
        entries = self._ranges.get(gate_name)
        if entries is None or angle is None:
            try:
                return GATE_DURATIONS_NS[gate_name]
            except KeyError:
                raise CompilationError(
                    f"no duration registered for gate {gate_name!r}"
                ) from None
        wrapped = self.wrap(angle)
        for entry in entries:
            if entry.contains(wrapped) or (
                wrapped == math.pi and math.isclose(entry.hi, math.pi, abs_tol=1e-9)
            ):
                return entry.duration_ns
        raise CompilationError(
            f"angle {wrapped:g} not covered by {gate_name!r} ranges"
        )


def default_step_table() -> StepFunctionTable:
    """The Barends-style default calibration.

    * ``rz``: near-zero rotations are *virtual* (frame updates, 0 ns — the
      McKay et al. efficient-Z trick); everything else pays Table 1's
      0.4 ns.
    * ``rx``: near-zero rotations are dropped (0 ns), small rotations
      (|θ| < 2.25) use a half-length calibrated pulse, full rotations pay
      Table 1's 2.5 ns.
    """
    rz = GATE_DURATIONS_NS["rz"]
    rx = GATE_DURATIONS_NS["rx"]
    return StepFunctionTable(
        {
            "rz": (
                AngleRange(-math.pi, -0.25, rz),
                AngleRange(-0.25, 0.25, 0.0),
                AngleRange(0.25, math.pi, rz),
            ),
            "rx": (
                AngleRange(-math.pi, -2.25, rx),
                AngleRange(-2.25, -0.25, rx / 2),
                AngleRange(-0.25, 0.25, 0.0),
                AngleRange(0.25, 2.25, rx / 2),
                AngleRange(2.25, math.pi, rx),
            ),
        }
    )


class _StepFunctionGateCompiler:
    """Lookup-table compilation with angle-dependent pulse durations.

    Same zero runtime latency as the gate-based compiler; the only
    difference is that the pulse concatenated for a parametrized gate
    depends on which calibration range the bound angle falls in.
    """

    method = "step-function"

    def __init__(self, table: StepFunctionTable | None = None):
        self.table = table or default_step_table()

    def compile_parametrized(
        self, circuit: QuantumCircuit, values: Sequence[float] | dict
    ) -> CompiledPulse:
        """Bind ``values`` and concatenate the range-resolved pulses."""
        if not isinstance(values, dict):
            values = dict(zip(circuit.parameters, values))
        bound = circuit.bind_parameters(values)
        return self.compile_bound(bound)

    def compile_bound(self, circuit: QuantumCircuit) -> CompiledPulse:
        """Compile an already-bound circuit."""
        if circuit.is_parameterized():
            unbound = sorted(p.name for p in circuit.parameters)
            raise CompilationError(f"unbound parameters {unbound}")
        start = time.perf_counter()
        schedules = []
        for inst in circuit:
            angle = None
            if inst.gate.params:
                angle = float(inst.gate.params[0])
            duration = self.table.duration_ns(inst.gate.name, angle)
            if duration <= 0:
                continue  # virtual gate: frame update, no pulse
            schedules.append(lookup_schedule(inst.qubits, duration))
        program = PulseProgram.sequence(schedules)
        elapsed = time.perf_counter() - start
        return CompiledPulse(
            method=self.method,
            program=program,
            pulse_duration_ns=program.duration_ns,
            runtime_latency_s=elapsed,
            runtime_iterations=0,
            blocks_compiled=len(schedules),
            metadata={"refined_gates": self.table.refined_gates},
        )
