"""Commutation-aware rotation merging.

``merge_rotations`` only fuses rotations that are *adjacent* on their qubit.
But a ``Rz`` on a CX's control qubit commutes through the CX (both are
diagonal on that qubit), and an ``Rx`` on a CX's target commutes likewise —
so rotations separated by commuting gates can still merge.  This pass
implements that stronger rule, one of the "circuit identity templates" the
paper's optimization stack applies (section 2.2).

Commutation rules used (for the rotation's qubit ``q``):

* ``Rz(q)`` passes ``cx`` (when ``q`` is the control), ``cz``, ``rzz``,
  and the diagonal gates ``z, s, sdg, t, tdg``.
* ``Rx(q)`` passes ``cx`` (when ``q`` is the target) and ``x``.

Symbolic safety: two symbolic rotations merge only when they depend on the
same parameter (merging θⱼ into an earlier θᵢ position would break the
parameter-monotonic list order partial compilation relies on).
"""

from __future__ import annotations

from repro.circuits.circuit import Instruction, QuantumCircuit
from repro.circuits.gates import RXGate, RZGate
from repro.transpile.optimize import _add_angles, _is_zero_angle

_ROTATION_CLASSES = {"rz": RZGate, "rx": RXGate}

_Z_DIAGONAL = {"z", "s", "sdg", "t", "tdg", "rz", "rzz", "cz"}


def _commutes(axis: str, qubit: int, inst: Instruction) -> bool:
    """Does ``inst`` commute with an ``axis`` rotation on ``qubit``?"""
    name = inst.gate.name
    if axis == "rz":
        if name in _Z_DIAGONAL:
            return True
        if name == "cx":
            return inst.qubits[0] == qubit  # diagonal on the control
        return False
    if axis == "rx":
        if name in ("x", "rx"):
            return True
        if name == "cx":
            return inst.qubits[1] == qubit  # X-like on the target
        return False
    return False


def _mergeable(a, b) -> bool:
    """Symbolic-safety rule: allow constant/constant, constant/symbolic,
    and same-parameter symbolic merges."""
    from repro.circuits.parameters import angle_parameters

    params_a, params_b = angle_parameters(a), angle_parameters(b)
    if not params_a or not params_b:
        return True
    return params_a == params_b


def commuting_rotation_merge(circuit: QuantumCircuit) -> QuantumCircuit:
    """Merge same-axis rotations separated by commuting gates."""
    emitted: list = list(circuit.instructions)
    # Per-qubit ordered positions into `emitted`.
    timelines: dict[int, list] = {q: [] for q in range(circuit.num_qubits)}
    for pos, inst in enumerate(emitted):
        for q in inst.qubits:
            timelines[q].append(pos)

    for q, positions in timelines.items():
        i = 0
        while i < len(positions):
            pos = positions[i]
            inst = emitted[pos]
            if inst is None or inst.gate.name not in _ROTATION_CLASSES or len(inst.qubits) != 1:
                i += 1
                continue
            axis = inst.gate.name
            # Walk forward through commuting gates looking for a partner.
            j = i + 1
            while j < len(positions):
                other_pos = positions[j]
                other = emitted[other_pos]
                if other is None:
                    j += 1
                    continue
                if other.gate.name == axis and len(other.qubits) == 1:
                    if _mergeable(inst.gate.params[0], other.gate.params[0]):
                        merged = _add_angles(inst.gate.params[0], other.gate.params[0])
                        emitted[other_pos] = None
                        if _is_zero_angle(merged):
                            # Both cancelled: a later rotation starts its
                            # own walk instead of merging into this one.
                            emitted[pos] = None
                            break
                        emitted[pos] = Instruction(
                            _ROTATION_CLASSES[axis](merged), (q,)
                        )
                        inst = emitted[pos]
                        j += 1
                        continue
                    break
                if _commutes(axis, q, other):
                    j += 1
                    continue
                break
            i += 1

    out = QuantumCircuit(circuit.num_qubits, name=circuit.name)
    for inst in emitted:
        if inst is not None:
            out.append(inst.gate, inst.qubits)
    return out
