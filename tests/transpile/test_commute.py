"""Tests for commutation-aware rotation merging."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.library import random_circuit
from repro.circuits.parameters import Parameter
from repro.linalg.unitaries import unitaries_equal_up_to_phase
from repro.sim.unitary import circuit_unitary
from repro.transpile.commute import commuting_rotation_merge


class TestCommutingMerge:
    def test_rz_through_cx_control(self):
        qc = QuantumCircuit(2).rz(0.3, 0).cx(0, 1).rz(0.4, 0)
        out = commuting_rotation_merge(qc)
        assert out.count_ops() == {"rz": 1, "cx": 1}
        rz = [i for i in out if i.gate.name == "rz"][0]
        assert math.isclose(rz.gate.params[0], 0.7)

    def test_rz_through_cx_target_blocked(self):
        qc = QuantumCircuit(2).rz(0.3, 1).cx(0, 1).rz(0.4, 1)
        out = commuting_rotation_merge(qc)
        assert out.count_ops()["rz"] == 2

    def test_rx_through_cx_target(self):
        qc = QuantumCircuit(2).rx(0.3, 1).cx(0, 1).rx(0.4, 1)
        out = commuting_rotation_merge(qc)
        assert out.count_ops()["rx"] == 1

    def test_rx_through_cx_control_blocked(self):
        qc = QuantumCircuit(2).rx(0.3, 0).cx(0, 1).rx(0.4, 0)
        out = commuting_rotation_merge(qc)
        assert out.count_ops()["rx"] == 2

    def test_rz_through_cz_and_rzz(self):
        qc = QuantumCircuit(2)
        qc.rz(0.2, 0).cz(0, 1).rzz(0.5, 0, 1).rz(-0.2, 0)
        out = commuting_rotation_merge(qc)
        assert out.count_ops().get("rz", 0) == 0  # merged to zero

    def test_h_blocks_merge(self):
        qc = QuantumCircuit(1).rz(0.3, 0).h(0).rz(0.4, 0)
        out = commuting_rotation_merge(qc)
        assert out.count_ops()["rz"] == 2

    def test_cancellation_to_zero_removes_both(self):
        qc = QuantumCircuit(2).rz(0.5, 0).cx(0, 1).rz(-0.5, 0)
        out = commuting_rotation_merge(qc)
        assert out.count_ops() == {"cx": 1}

    def test_rotation_after_cancellation_survives(self):
        qc = QuantumCircuit(2).rz(-0.5, 0).cx(0, 1).rz(0.5, 0).cx(0, 1).rz(0.5, 0)
        out = commuting_rotation_merge(qc)
        assert out.count_ops() == {"rz": 1, "cx": 2}
        assert unitaries_equal_up_to_phase(
            circuit_unitary(out), circuit_unitary(qc), atol=1e-9
        )

    def test_symbolic_same_parameter_merges(self):
        theta = Parameter("theta_0")
        qc = QuantumCircuit(2).rz(theta, 0).cx(0, 1).rz(theta, 0)
        out = commuting_rotation_merge(qc)
        rz = [i for i in out if i.gate.name == "rz"]
        assert len(rz) == 1
        assert rz[0].gate.params[0].coefficient(theta) == 2.0

    def test_symbolic_different_parameters_not_merged(self):
        t0, t1 = Parameter("theta_0"), Parameter("theta_1")
        qc = QuantumCircuit(2).rz(t0, 0).cx(0, 1).rz(t1, 0)
        out = commuting_rotation_merge(qc)
        assert out.count_ops()["rz"] == 2

    def test_chain_of_commuting_gates(self):
        qc = QuantumCircuit(3)
        qc.rz(0.1, 0).cx(0, 1).cz(0, 2).s(0).rz(0.2, 0)
        out = commuting_rotation_merge(qc)
        rz = [i for i in out if i.gate.name == "rz"]
        assert len(rz) == 1
        assert math.isclose(rz[0].gate.params[0], 0.3)

    @given(st.integers(0, 40))
    @settings(max_examples=20, deadline=None)
    def test_preserves_unitary(self, seed):
        qc = random_circuit(3, 30, seed=seed)
        out = commuting_rotation_merge(qc)
        assert len(out) <= len(qc)
        assert unitaries_equal_up_to_phase(
            circuit_unitary(out), circuit_unitary(qc)
        )

    def test_preserves_unitary_with_bound_angles(self):
        qc = QuantumCircuit(2)
        qc.rz(0.7, 0).cx(0, 1).rz(0.9, 0).cx(0, 1).rz(-1.6, 0)
        out = commuting_rotation_merge(qc)
        assert unitaries_equal_up_to_phase(
            circuit_unitary(out), circuit_unitary(qc)
        )
