"""The :class:`QuantumCircuit` container.

A circuit is an ordered sequence of :class:`Instruction` (gate + qubit
tuple) on ``num_qubits`` qubits.  It supports the operations the transpiler
and the partial-compilation engines need: appending, composing, inverting,
parameter binding, structural queries (depth, op counts, parameter order),
and slicing by instruction index.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from repro.circuits.gates import (
    CXGate,
    CZGate,
    Gate,
    HGate,
    IGate,
    ISwapGate,
    RXGate,
    RYGate,
    RZGate,
    RZZGate,
    SGate,
    SdgGate,
    SwapGate,
    TGate,
    TdgGate,
    XGate,
    YGate,
    ZGate,
)
from repro.circuits.parameters import Parameter, angle_token
from repro.errors import CircuitError


@dataclass(frozen=True)
class Instruction:
    """A gate applied to a specific tuple of qubits."""

    gate: Gate
    qubits: tuple

    def __post_init__(self):
        if len(self.qubits) != self.gate.num_qubits:
            raise CircuitError(
                f"gate {self.gate.name} acts on {self.gate.num_qubits} qubits, "
                f"got {len(self.qubits)}"
            )
        if len(set(self.qubits)) != len(self.qubits):
            raise CircuitError(f"duplicate qubits in {self.qubits}")

    @property
    def parameters(self) -> frozenset:
        return self.gate.parameters

    def __repr__(self) -> str:
        return f"{self.gate!r} @ {list(self.qubits)}"


class QuantumCircuit:
    """An ordered list of gate applications on ``num_qubits`` qubits."""

    # Caches of ``parameters`` and ``content_fingerprint()``; ``append``,
    # the one mutator, clears them.  Circuits built without ``__init__``
    # (unpickled copies) read these class defaults.
    _parameters: tuple | None = None
    _fingerprint: str | None = None

    def __init__(self, num_qubits: int, name: str = "circuit"):
        if num_qubits < 1:
            raise CircuitError(f"circuit needs at least one qubit, got {num_qubits}")
        self.num_qubits = num_qubits
        self.name = name
        self._instructions: list[Instruction] = []

    # -- construction --------------------------------------------------------
    def append(self, gate: Gate, qubits: Sequence[int]) -> "QuantumCircuit":
        """Append ``gate`` on ``qubits``; returns self for chaining."""
        qubits = tuple(int(q) for q in qubits)
        for q in qubits:
            if q < 0 or q >= self.num_qubits:
                raise CircuitError(f"qubit {q} out of range for width {self.num_qubits}")
        self._instructions.append(Instruction(gate, qubits))
        self._parameters = self._fingerprint = None
        return self

    # Convenience constructors for the gate library.
    def i(self, q: int):
        return self.append(IGate(), (q,))

    def x(self, q: int):
        return self.append(XGate(), (q,))

    def y(self, q: int):
        return self.append(YGate(), (q,))

    def z(self, q: int):
        return self.append(ZGate(), (q,))

    def h(self, q: int):
        return self.append(HGate(), (q,))

    def s(self, q: int):
        return self.append(SGate(), (q,))

    def sdg(self, q: int):
        return self.append(SdgGate(), (q,))

    def t(self, q: int):
        return self.append(TGate(), (q,))

    def tdg(self, q: int):
        return self.append(TdgGate(), (q,))

    def rx(self, theta, q: int):
        return self.append(RXGate(theta), (q,))

    def ry(self, theta, q: int):
        return self.append(RYGate(theta), (q,))

    def rz(self, phi, q: int):
        return self.append(RZGate(phi), (q,))

    def cx(self, control: int, target: int):
        return self.append(CXGate(), (control, target))

    def cz(self, a: int, b: int):
        return self.append(CZGate(), (a, b))

    def swap(self, a: int, b: int):
        return self.append(SwapGate(), (a, b))

    def iswap(self, a: int, b: int):
        return self.append(ISwapGate(), (a, b))

    def rzz(self, theta, a: int, b: int):
        return self.append(RZZGate(theta), (a, b))

    # -- container protocol ---------------------------------------------------
    @property
    def instructions(self) -> tuple:
        return tuple(self._instructions)

    def __len__(self) -> int:
        return len(self._instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self._instructions)

    def __getitem__(self, index):
        if isinstance(index, slice):
            sub = QuantumCircuit(self.num_qubits, name=f"{self.name}[{index}]")
            for inst in self._instructions[index]:
                sub.append(inst.gate, inst.qubits)
            return sub
        return self._instructions[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuantumCircuit):
            return NotImplemented
        return (
            self.num_qubits == other.num_qubits
            and len(self) == len(other)
            and all(
                a.gate == b.gate and a.qubits == b.qubits
                for a, b in zip(self._instructions, other._instructions)
            )
        )

    def __repr__(self) -> str:
        return (
            f"QuantumCircuit(name={self.name!r}, qubits={self.num_qubits}, "
            f"gates={len(self)})"
        )

    # -- structural queries ----------------------------------------------------
    @property
    def parameters(self) -> tuple:
        """Symbolic parameters in index order (θ_0, θ_1, …)."""
        if self._parameters is None:
            seen: set = set()
            for inst in self._instructions:
                seen |= inst.parameters
            self._parameters = tuple(sorted(seen))
        return self._parameters

    def is_parameterized(self) -> bool:
        return any(inst.parameters for inst in self._instructions)

    def count_ops(self) -> dict:
        """Histogram of gate names."""
        counts: dict = {}
        for inst in self._instructions:
            counts[inst.gate.name] = counts.get(inst.gate.name, 0) + 1
        return counts

    def depth(self) -> int:
        """Number of parallel layers (unit-duration critical path)."""
        frontier = [0] * self.num_qubits
        for inst in self._instructions:
            level = max(frontier[q] for q in inst.qubits) + 1
            for q in inst.qubits:
                frontier[q] = level
        return max(frontier, default=0)

    def active_qubits(self) -> tuple:
        """Sorted tuple of qubits touched by at least one gate."""
        used: set = set()
        for inst in self._instructions:
            used.update(inst.qubits)
        return tuple(sorted(used))

    def content_fingerprint(self) -> str:
        """A structural content hash of this circuit.

        The digest covers the circuit width and, per instruction, the gate
        name, qubit tuple, and the canonical token of each angle
        (:func:`repro.circuits.parameters.angle_token`): numeric angles by
        exact value, symbolic angles by their parameter skeleton.  Two
        consequences matter for content-addressed caching: every binding of
        one symbolic ansatz shares the ansatz's fingerprint (the plan cache
        keys on the pre-binding circuit), and circuits that differ in any
        gate, qubit, or angle get distinct keys.  The digest is independent
        of the circuit ``name``, interpreter hash randomization, and
        pickling, so it is safe to key on-disk state.  It is hashed once
        and kept until the next :meth:`append`.
        """
        if self._fingerprint is None:
            items = [("width", self.num_qubits)]
            for inst in self._instructions:
                items.append(
                    (
                        inst.gate.name,
                        inst.qubits,
                        tuple(angle_token(p) for p in inst.gate.params),
                    )
                )
            payload = repr(items).encode("utf-8")
            self._fingerprint = hashlib.sha256(payload).hexdigest()
        return self._fingerprint

    # -- transformations --------------------------------------------------------
    def copy(self, name: str | None = None) -> "QuantumCircuit":
        out = QuantumCircuit(self.num_qubits, name=name or self.name)
        out._instructions = list(self._instructions)
        return out

    def compose(self, other: "QuantumCircuit", qubits: Sequence[int] | None = None) -> "QuantumCircuit":
        """Return self followed by ``other``.

        ``qubits`` maps ``other``'s qubit ``k`` to ``qubits[k]`` of self;
        identity mapping by default (then widths must agree).
        """
        if qubits is None:
            if other.num_qubits > self.num_qubits:
                raise CircuitError(
                    f"cannot compose width {other.num_qubits} onto width {self.num_qubits}"
                )
            mapping = list(range(other.num_qubits))
        else:
            mapping = list(qubits)
            if len(mapping) != other.num_qubits:
                raise CircuitError(
                    f"mapping length {len(mapping)} != other width {other.num_qubits}"
                )
        out = self.copy()
        for inst in other:
            out.append(inst.gate, tuple(mapping[q] for q in inst.qubits))
        return out

    def inverse(self) -> "QuantumCircuit":
        """The inverse circuit (reversed order, inverted gates)."""
        out = QuantumCircuit(self.num_qubits, name=f"{self.name}_dg")
        for inst in reversed(self._instructions):
            out.append(inst.gate.inverse(), inst.qubits)
        return out

    def bind_parameters(self, values) -> "QuantumCircuit":
        """Substitute numeric values for symbolic parameters.

        ``values`` may be a mapping ``{Parameter: float}`` or a sequence of
        floats matched to :attr:`parameters` in index order.
        """
        if not isinstance(values, Mapping):
            params = self.parameters
            values = list(values)
            if len(values) != len(params):
                raise CircuitError(
                    f"circuit has {len(params)} parameters, got {len(values)} values"
                )
            values = dict(zip(params, values))
        out = QuantumCircuit(self.num_qubits, name=self.name)
        for inst in self._instructions:
            gate = inst.gate.bind(values) if inst.parameters else inst.gate
            out.append(gate, inst.qubits)
        return out

    def remap_qubits(self, mapping: Mapping[int, int], num_qubits: int | None = None) -> "QuantumCircuit":
        """Relabel qubits through ``mapping`` (must cover all active qubits)."""
        width = num_qubits if num_qubits is not None else self.num_qubits
        out = QuantumCircuit(width, name=self.name)
        for inst in self._instructions:
            try:
                new_qubits = tuple(mapping[q] for q in inst.qubits)
            except KeyError as exc:
                raise CircuitError(f"qubit {exc.args[0]} missing from mapping") from None
            out.append(inst.gate, new_qubits)
        return out

    def sub_circuit(self, indices: Iterable[int]) -> "QuantumCircuit":
        """Circuit containing the instructions at ``indices`` (in that order)."""
        out = QuantumCircuit(self.num_qubits, name=f"{self.name}_sub")
        for i in indices:
            inst = self._instructions[i]
            out.append(inst.gate, inst.qubits)
        return out

    # -- display ------------------------------------------------------------
    def draw(self) -> str:
        """A compact one-gate-per-line text rendering."""
        lines = [f"{self.name} ({self.num_qubits} qubits, {len(self)} gates)"]
        for inst in self._instructions:
            lines.append(f"  {inst!r}")
        return "\n".join(lines)
