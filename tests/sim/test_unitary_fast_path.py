"""``circuit_unitary``'s 1- and 2-qubit path equals the general one bit for bit.

Small blocks skip :func:`embed_operator`'s permutation setup but multiply
the same operands, so every entry — signed zeros included — must match
the general construction.  The blocks are those of the benchmark
workloads' circuits (QAOA 3-regular MaxCut on 4 and 6 nodes and the H2
UCCSD ansatz, routed to a nearly square grid and blocked at width 2),
plus random circuits over every library gate.
"""

import numpy as np
import pytest

from repro.blocking.aggregate import aggregate_blocks
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import _GATE_CLASSES
from repro.linalg.operators import embed_operator
from repro.qaoa import maxcut_problem, qaoa_circuit
from repro.sim.unitary import _embedded, circuit_unitary
from repro.transpile import transpile
from repro.transpile.topology import nearly_square_grid
from repro.vqe import get_molecule


def _general(circuit: QuantumCircuit) -> np.ndarray:
    """The general construction: one full ``embed_operator`` per gate."""
    unitary = np.eye(2**circuit.num_qubits, dtype=complex)
    for inst in circuit:
        full = embed_operator(inst.gate.matrix(), inst.qubits, circuit.num_qubits)
        unitary = full @ unitary
    return unitary


def _assert_bit_equal(got: np.ndarray, want: np.ndarray) -> None:
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got.real), np.signbit(want.real))
    assert np.array_equal(np.signbit(got.imag), np.signbit(want.imag))


def _routed(circuit: QuantumCircuit) -> QuantumCircuit:
    return transpile(circuit, topology=nearly_square_grid(circuit.num_qubits))


def _workload_blocks(circuit: QuantumCircuit, rng) -> list:
    """Every width-2 block of ``circuit`` at a few parameter points, both
    blocked bound and blocked with the parametrized gates isolated."""
    params = sorted(circuit.parameters, key=lambda p: p.name)
    parametrized = {i for i, inst in enumerate(circuit) if inst.parameters}
    isolated = aggregate_blocks(circuit, 2, isolate=parametrized)
    blocks = []
    for point in range(4):
        draw = rng.uniform(-np.pi, np.pi, len(params)) if point else [0.0] * len(params)
        values = {p: float(v) for p, v in zip(params, draw)}
        for blocked in (aggregate_blocks(circuit.bind_parameters(values), 2), isolated):
            for block in blocked.blocks:
                sub, _ = blocked.local_circuit(block)
                if sub.is_parameterized():
                    sub = sub.bind_parameters({p: values[p] for p in sub.parameters})
                blocks.append(sub)
    return blocks


@pytest.mark.parametrize(
    "build",
    [
        lambda: qaoa_circuit(maxcut_problem("3regular", 6, seed=0), p=1),
        lambda: qaoa_circuit(maxcut_problem("3regular", 4, seed=0), p=1),
        lambda: get_molecule("H2").ansatz(),
    ],
    ids=["qaoa6", "qaoa4", "h2"],
)
def test_workload_blocks_match_the_general_construction(build):
    blocks = _workload_blocks(_routed(build()), np.random.default_rng(0))
    assert any(b.num_qubits == 2 for b in blocks)
    assert any(b.num_qubits == 1 for b in blocks)
    for block in blocks:
        _assert_bit_equal(circuit_unitary(block), _general(block))


def test_random_circuits_over_every_gate_match_the_general_construction():
    rng = np.random.default_rng(1)
    # Angles that give exact zeros (signed either way) as well as generic ones.
    angles = [0.0, -0.0, np.pi, -np.pi, np.pi / 2, -np.pi / 2, 0.3, -1.7]
    gates = []
    for cls in _GATE_CLASSES.values():
        for arity in range(3):
            try:
                gate = cls(*([0.3] * arity))
            except TypeError:
                continue
            gates.append((cls, arity, gate.num_qubits))
            break
    assert {width for _, _, width in gates} == {1, 2}
    for trial in range(300):
        num_qubits = 1 + trial % 2
        circuit = QuantumCircuit(num_qubits)
        for _ in range(int(rng.integers(1, 7))):
            choices = [g for g in gates if g[2] <= num_qubits]
            cls, arity, width = choices[int(rng.integers(len(choices)))]
            params = [angles[int(rng.integers(len(angles)))] for _ in range(arity)]
            qubits = [0, 1] if width == 2 else [int(rng.integers(num_qubits))]
            if width == 2 and rng.random() < 0.5:
                qubits.reverse()
            circuit.append(cls(*params), qubits)
        _assert_bit_equal(circuit_unitary(circuit), _general(circuit))


def test_each_embedded_gate_matches_embed_operator():
    """Signed zeros included: an elementwise outer product (``np.kron``)
    differs from ``embed_operator``'s ``np.dot`` in the sign of some zeros."""
    rng = np.random.default_rng(2)
    values = np.array([0.0, -0.0, 1.0, -1.0, np.sqrt(0.5), -np.sqrt(0.5), 0.3])

    def operator(dim):
        real, imag = values[rng.integers(len(values), size=(2, dim, dim))]
        matrix = np.empty((dim, dim), dtype=complex)
        matrix.real, matrix.imag = real, imag
        return matrix

    for _ in range(200):
        one, two = operator(2), operator(4)
        cases = [
            (one, (0,), 1),
            (one, (0,), 2),
            (one, (1,), 2),
            (two, (0, 1), 2),
            (two, (1, 0), 2),
        ]
        for matrix, qubits, num_qubits in cases:
            _assert_bit_equal(
                _embedded(matrix, qubits, num_qubits),
                embed_operator(matrix, list(qubits), num_qubits),
            )
