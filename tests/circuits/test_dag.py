"""Unit tests for the circuit dependency DAG and critical paths."""

import numpy as np
import pytest

from repro.circuits import gates
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.dag import CircuitDag, circuit_layers, critical_path_ns
from repro.circuits.library import random_circuit
from repro.config import GATE_DURATIONS_NS
from repro.errors import CircuitError

#: Every gate with a Table-1 duration, so random circuits mix all weights.
_ONE_QUBIT = (
    gates.IGate, gates.XGate, gates.YGate, gates.ZGate, gates.HGate,
    gates.SGate, gates.SdgGate, gates.TGate, gates.TdgGate,
)
_ROTATIONS = (gates.RXGate, gates.RYGate, gates.RZGate)
_TWO_QUBIT = (gates.CXGate, gates.CZGate, gates.SwapGate, gates.ISwapGate)


def _mixed_random_circuit(num_qubits: int, num_gates: int, seed: int) -> QuantumCircuit:
    rng = np.random.default_rng(seed)
    circuit = QuantumCircuit(num_qubits)
    for _ in range(num_gates):
        kind = rng.integers(4) if num_qubits >= 2 else rng.integers(2)
        if kind == 0:
            gate = _ONE_QUBIT[rng.integers(len(_ONE_QUBIT))]()
            circuit.append(gate, (int(rng.integers(num_qubits)),))
        elif kind == 1:
            gate = _ROTATIONS[rng.integers(len(_ROTATIONS))](float(rng.uniform(-3, 3)))
            circuit.append(gate, (int(rng.integers(num_qubits)),))
        else:
            a, b = rng.choice(num_qubits, size=2, replace=False)
            if kind == 2:
                gate = _TWO_QUBIT[rng.integers(len(_TWO_QUBIT))]()
            else:
                gate = gates.RZZGate(float(rng.uniform(-3, 3)))
            circuit.append(gate, (int(a), int(b)))
    return circuit


def _dag_critical_path(circuit: QuantumCircuit) -> float:
    """The networkx longest-path reference for ``critical_path_ns``."""
    return CircuitDag(circuit).weighted_critical_path(
        lambda idx: GATE_DURATIONS_NS[circuit[idx].gate.name]
    )


class _MysteryGate(gates.Gate):
    name = "mystery"


class TestDagStructure:
    def test_chain_dependencies(self):
        qc = QuantumCircuit(1).h(0).x(0).z(0)
        dag = CircuitDag(qc)
        assert list(dag.successors(0)) == [1]
        assert list(dag.successors(1)) == [2]

    def test_parallel_gates_independent(self):
        qc = QuantumCircuit(2).h(0).h(1)
        dag = CircuitDag(qc)
        assert list(dag.successors(0)) == []

    def test_two_qubit_gate_joins(self):
        qc = QuantumCircuit(2).h(0).h(1).cx(0, 1)
        dag = CircuitDag(qc)
        assert set(dag.predecessors(2)) == {0, 1}

    def test_topological_order_valid(self):
        qc = random_circuit(4, 30, seed=0)
        dag = CircuitDag(qc)
        position = {idx: i for i, idx in enumerate(dag.topological_order())}
        for src, dst in dag.graph.edges:
            assert position[src] < position[dst]


class TestLayers:
    def test_single_layer(self):
        qc = QuantumCircuit(3).h(0).h(1).h(2)
        assert len(circuit_layers(qc)) == 1

    def test_layer_count_equals_depth(self):
        qc = random_circuit(4, 40, seed=1)
        assert len(circuit_layers(qc)) == qc.depth()

    def test_layers_cover_all_instructions(self):
        qc = random_circuit(3, 25, seed=2)
        total = sum(len(layer) for layer in circuit_layers(qc))
        assert total == len(qc)


class TestCriticalPath:
    def test_empty_circuit(self):
        assert critical_path_ns(QuantumCircuit(2)) == 0.0

    def test_serial_sum(self):
        qc = QuantumCircuit(1).h(0).rx(0.3, 0)
        assert np.isclose(critical_path_ns(qc), 1.4 + 2.5)

    def test_parallel_max(self):
        qc = QuantumCircuit(2).rx(0.3, 0).rz(0.3, 1)
        assert np.isclose(critical_path_ns(qc), 2.5)

    def test_mixed(self):
        qc = QuantumCircuit(2).h(0).h(1).cx(0, 1).rz(0.1, 1)
        assert np.isclose(critical_path_ns(qc), 1.4 + 3.8 + 0.4)

    def test_weighted_critical_path_custom(self):
        qc = QuantumCircuit(2).h(0).cx(0, 1)
        dag = CircuitDag(qc)
        assert dag.weighted_critical_path(lambda i: 1.0) == 2.0


class TestLinearCriticalPathMatchesDag:
    """The per-qubit sweep is float-identical to the DAG longest path."""

    @pytest.mark.parametrize("seed", range(40))
    def test_random_mixed_circuits_identical(self, seed):
        num_qubits = 1 + seed % 5
        circuit = _mixed_random_circuit(num_qubits, 5 + 7 * seed, seed)
        assert critical_path_ns(circuit) == _dag_critical_path(circuit)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_library_circuits_identical(self, seed):
        circuit = random_circuit(4, 60, seed=seed)
        assert critical_path_ns(circuit) == _dag_critical_path(circuit)

    def test_zero_duration_gates_only(self):
        circuit = QuantumCircuit(2).i(0).i(1)
        assert critical_path_ns(circuit) == _dag_critical_path(circuit) == 0.0

    def test_empty_circuit_is_zero(self):
        circuit = QuantumCircuit(3)
        assert critical_path_ns(circuit) == _dag_critical_path(circuit) == 0.0

    def test_unknown_gate_raises(self):
        circuit = QuantumCircuit(2).h(0).append(_MysteryGate(), (1,))
        with pytest.raises(CircuitError, match="mystery"):
            critical_path_ns(circuit)
