"""eQASM-style pulse assembly for precompiled partial-compilation programs.

Paper section 6: "These static precompiled pulse sequences can be defined
as microinstructions in a low-level assembly such as eQASM".  This module
is that assembly layer:

* a :class:`MicroinstructionTable` names each precompiled pulse waveform
  once (Fixed blocks repeat heavily in UCCSD circuits, so the table
  deduplicates them),
* a :class:`PulseAssembly` is the program — a sequence of
  ``pulse <name>`` micro-ops and parametric ``rz`` slots whose angles are
  linear forms over the variational parameters,
* :meth:`PulseAssembly.link` resolves a concrete parametrization into a
  flat :class:`~repro.pulse.schedule.PulseProgram` — the zero-GRAPE runtime
  step of strict partial compilation,
* :meth:`PulseAssembly.to_json` / :meth:`PulseAssembly.from_json` give the
  on-disk format a control computer would load.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from repro.config import GATE_DURATIONS_NS
from repro.errors import PulseError
from repro.pulse.schedule import PulseProgram, PulseSchedule, lookup_schedule

__all__ = [
    "MicroinstructionTable",
    "ParametricRzOp",
    "PulseAssembly",
    "PulseOp",
    "assembly_from_strict_plan",
]


class MicroinstructionTable:
    """Named precompiled pulse waveforms, deduplicated by content."""

    def __init__(self):
        self._schedules: dict = {}
        self._by_fingerprint: dict = {}

    def __len__(self) -> int:
        return len(self._schedules)

    def __contains__(self, name: str) -> bool:
        return name in self._schedules

    @property
    def names(self) -> tuple:
        """Defined microinstruction names, in definition order."""
        return tuple(self._schedules)

    def define(self, name: str, schedule: PulseSchedule) -> str:
        """Register ``schedule`` under ``name``; rejects redefinition."""
        if name in self._schedules:
            raise PulseError(f"microinstruction {name!r} already defined")
        self._schedules[name] = schedule
        self._by_fingerprint.setdefault(self._fingerprint(schedule), name)
        return name

    def intern(self, schedule: PulseSchedule) -> str:
        """Return the name of ``schedule``, defining ``u<k>`` if new.

        Identical waveforms (same qubits, dt, and samples) share one entry —
        this is what makes the table small for UCCSD circuits, whose Fixed
        blocks repeat across excitation terms.
        """
        fingerprint = self._fingerprint(schedule)
        name = self._by_fingerprint.get(fingerprint)
        if name is None:
            name = f"u{len(self._schedules)}"
            self.define(name, schedule)
        return name

    def get(self, name: str) -> PulseSchedule:
        """The schedule registered under ``name``; raises if undefined."""
        try:
            return self._schedules[name]
        except KeyError:
            raise PulseError(f"undefined microinstruction {name!r}") from None

    @staticmethod
    def _fingerprint(schedule: PulseSchedule) -> tuple:
        samples = np.round(schedule.controls, decimals=9)
        return (
            schedule.qubits,
            round(schedule.dt_ns, 9),
            samples.shape,
            samples.tobytes(),
        )


@dataclass(frozen=True)
class PulseOp:
    """``pulse <name>`` — play one precompiled microinstruction."""

    name: str


@dataclass(frozen=True)
class ParametricRzOp:
    """A run-time ``rz`` slot with a linear-form angle.

    ``angle = Σ coefficients[param_name] · θ[param_name] + offset``; the
    pulse itself is the calibrated lookup ``Rz`` (0.4 ns in Table 1) — its
    duration is independent of the angle, which is why linking costs no
    GRAPE time.
    """

    qubits: tuple
    gate_name: str
    coefficients: tuple  # ((param_name, coefficient), ...)
    offset: float

    def angle(self, values: dict) -> float:
        """Evaluate the linear form at ``values`` (name → angle mapping)."""
        total = self.offset
        for name, coefficient in self.coefficients:
            try:
                total += coefficient * float(values[name])
            except KeyError:
                raise PulseError(f"missing value for parameter {name!r}") from None
        return total


@dataclass
class PulseAssembly:
    """An eQASM-style pulse program over a microinstruction table."""

    table: MicroinstructionTable
    ops: list = field(default_factory=list)
    parameter_names: tuple = ()

    def append_pulse(self, schedule: PulseSchedule) -> None:
        """Append a ``pulse`` op, interning ``schedule`` into the table."""
        self.ops.append(PulseOp(self.table.intern(schedule)))

    def append_rz(
        self,
        qubits,
        gate_name: str,
        coefficients,
        offset: float = 0.0,
    ) -> None:
        """Append a parametric ``rz`` slot (see :class:`ParametricRzOp`)."""
        self.ops.append(
            ParametricRzOp(
                qubits=tuple(qubits),
                gate_name=gate_name,
                coefficients=tuple(coefficients),
                offset=float(offset),
            )
        )

    # -- linking -------------------------------------------------------------
    def link(self, values) -> PulseProgram:
        """Resolve a parametrization into a flat pulse program.

        ``values`` is a mapping from parameter name to angle, or a sequence
        aligned with ``parameter_names``.  Linking is pure concatenation —
        the zero-latency runtime step of strict partial compilation.
        """
        if not isinstance(values, dict):
            values = dict(zip(self.parameter_names, values))
        missing = [n for n in self.parameter_names if n not in values]
        if missing:
            raise PulseError(f"missing values for parameters {missing}")
        schedules = []
        for op in self.ops:
            if isinstance(op, PulseOp):
                schedules.append(self.table.get(op.name))
            else:
                op.angle(values)  # validates the binding
                duration = GATE_DURATIONS_NS.get(
                    op.gate_name, GATE_DURATIONS_NS["rz"]
                )
                schedules.append(lookup_schedule(op.qubits, duration))
        return PulseProgram.sequence(schedules)

    # -- rendering -------------------------------------------------------------
    def format(self) -> str:
        """Human-readable eQASM-style listing."""
        lines = [".table"]
        for name in self.table.names:
            schedule = self.table.get(name)
            lines.append(
                f"  {name}: qubits={schedule.qubits} steps={schedule.num_steps} "
                f"dt={schedule.dt_ns:.4g}ns source={schedule.source}"
            )
        lines.append(".program")
        for op in self.ops:
            if isinstance(op, PulseOp):
                lines.append(f"  pulse {op.name}")
            else:
                terms = " + ".join(
                    f"{coefficient:g}*{name}" for name, coefficient in op.coefficients
                )
                if op.offset or not terms:
                    terms = f"{terms} + {op.offset:g}" if terms else f"{op.offset:g}"
                qubits = ", ".join(f"q{q}" for q in op.qubits)
                lines.append(f"  {op.gate_name} {qubits}, {terms}")
        return "\n".join(lines)

    # -- serialization ---------------------------------------------------------
    def to_json(self) -> str:
        """Serialize table + program to the versioned JSON wire format."""
        table = {
            name: _schedule_to_dict(self.table.get(name)) for name in self.table.names
        }
        ops = []
        for op in self.ops:
            if isinstance(op, PulseOp):
                ops.append({"op": "pulse", "name": op.name})
            else:
                ops.append(
                    {
                        "op": "rz",
                        "qubits": list(op.qubits),
                        "gate": op.gate_name,
                        "coefficients": [[n, c] for n, c in op.coefficients],
                        "offset": op.offset,
                    }
                )
        return json.dumps(
            {
                "format": "repro-pulse-assembly/1",
                "parameters": list(self.parameter_names),
                "table": table,
                "program": ops,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "PulseAssembly":
        """Parse :meth:`to_json` output; raises :class:`PulseError` on bad input."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise PulseError(f"invalid assembly JSON: {exc}") from exc
        if payload.get("format") != "repro-pulse-assembly/1":
            raise PulseError(f"unknown assembly format {payload.get('format')!r}")
        table = MicroinstructionTable()
        for name, entry in payload["table"].items():
            table.define(name, _schedule_from_dict(entry))
        assembly = cls(
            table=table, parameter_names=tuple(payload.get("parameters", ()))
        )
        for op in payload["program"]:
            if op["op"] == "pulse":
                assembly.ops.append(PulseOp(op["name"]))
            elif op["op"] == "rz":
                assembly.ops.append(
                    ParametricRzOp(
                        qubits=tuple(op["qubits"]),
                        gate_name=op["gate"],
                        coefficients=tuple((n, float(c)) for n, c in op["coefficients"]),
                        offset=float(op["offset"]),
                    )
                )
            else:
                raise PulseError(f"unknown assembly op {op['op']!r}")
        return assembly


def _schedule_to_dict(schedule: PulseSchedule) -> dict:
    return {
        "qubits": list(schedule.qubits),
        "dt_ns": schedule.dt_ns,
        "controls": schedule.controls.tolist(),
        "channels": list(schedule.channel_names),
        "source": schedule.source,
    }


def _schedule_from_dict(entry: dict) -> PulseSchedule:
    return PulseSchedule(
        qubits=tuple(entry["qubits"]),
        dt_ns=float(entry["dt_ns"]),
        controls=np.asarray(entry["controls"], dtype=float),
        channel_names=tuple(entry.get("channels", ())),
        source=entry.get("source", "grape"),
    )


def assembly_from_strict_plan(compiler) -> PulseAssembly:
    """Export a strict-partial plan (``CompileResult.compiler`` of a
    ``"strict-partial"`` request, a
    :class:`~repro.core.strict._StrictPartialCompiler`).

    The strict compiler's plan is exactly an assembly program: Fixed-block
    schedules become (deduplicated) microinstructions, parameter-dependent
    gates become parametric ``rz`` slots.  ``assembly.link(values)`` then
    reproduces ``compiler.compile(values)``'s pulse program (before the
    strictly-better fallback check).
    """
    assembly = PulseAssembly(
        table=MicroinstructionTable(),
        parameter_names=tuple(p.name for p in compiler.parameters),
    )
    from repro.circuits.parameters import Parameter, ParameterExpression

    for entry in compiler._plan:
        if entry[0] == "pulse":
            assembly.append_pulse(entry[1])
        else:
            _, qubits, gate_name, expr = entry
            if isinstance(expr, Parameter):
                expr = ParameterExpression({expr: 1.0})
            elif not isinstance(expr, ParameterExpression):
                expr = ParameterExpression({}, float(expr))
            coefficients = tuple(
                (p.name, expr.coefficient(p))
                for p in sorted(expr.parameters, key=lambda p: p.name)
            )
            assembly.append_rz(qubits, gate_name, coefficients, expr.constant)
    return assembly
