"""Tests for the step-function gate-to-pulse lookup baseline."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import QuantumCircuit
from repro.circuits.parameters import Parameter
from repro.config import GATE_DURATIONS_NS
from repro.core.stepfunction import (
    AngleRange,
    StepFunctionTable,
    default_step_table,
)
from repro.errors import CompilationError
from repro.service import CompilationService, CompileRequest, ServiceConfig


def _compile(circuit, values=None, strategy="step-function"):
    """One lookup-table request through a service; its compiled pulse."""
    with CompilationService(config=ServiceConfig(executor="serial")) as service:
        return service.compile(
            CompileRequest(circuit, values, strategy=strategy)
        ).compiled


class TestAngleRange:
    def test_contains(self):
        r = AngleRange(-1.0, 1.0, 2.0)
        assert r.contains(0.0) and r.contains(-1.0)
        assert not r.contains(1.0)  # half-open

    def test_empty_range_rejected(self):
        with pytest.raises(CompilationError):
            AngleRange(1.0, 1.0, 2.0)

    def test_negative_duration_rejected(self):
        with pytest.raises(CompilationError):
            AngleRange(0.0, 1.0, -0.1)


class TestStepFunctionTable:
    def test_tiling_validation_gap(self):
        with pytest.raises(CompilationError):
            StepFunctionTable(
                {"rz": (AngleRange(-math.pi, 0.0, 1.0), AngleRange(0.5, math.pi, 1.0))}
            )

    def test_tiling_validation_bounds(self):
        with pytest.raises(CompilationError):
            StepFunctionTable({"rz": (AngleRange(-1.0, math.pi, 1.0),)})

    def test_empty_ranges_rejected(self):
        with pytest.raises(CompilationError):
            StepFunctionTable({"rz": ()})

    def test_wrap(self):
        assert StepFunctionTable.wrap(0.1) == pytest.approx(0.1)
        assert StepFunctionTable.wrap(2 * math.pi + 0.1) == pytest.approx(0.1)
        assert StepFunctionTable.wrap(-math.pi) == pytest.approx(math.pi)
        assert StepFunctionTable.wrap(3 * math.pi) == pytest.approx(math.pi)

    def test_lookup_hits_right_range(self):
        table = default_step_table()
        assert table.duration_ns("rz", 0.1) == 0.0  # virtual Z
        assert table.duration_ns("rz", 1.0) == GATE_DURATIONS_NS["rz"]
        assert table.duration_ns("rx", 1.0) == GATE_DURATIONS_NS["rx"] / 2
        assert table.duration_ns("rx", 3.0) == GATE_DURATIONS_NS["rx"]

    def test_boundary_angle_pi(self):
        table = default_step_table()
        assert table.duration_ns("rz", math.pi) == GATE_DURATIONS_NS["rz"]

    def test_unrefined_gate_falls_back_to_table1(self):
        table = default_step_table()
        assert table.duration_ns("cx") == GATE_DURATIONS_NS["cx"]
        assert table.duration_ns("h", 0.0) == GATE_DURATIONS_NS["h"]

    def test_unknown_gate_rejected(self):
        with pytest.raises(CompilationError):
            default_step_table().duration_ns("frob")

    def test_refined_gates_listing(self):
        assert default_step_table().refined_gates == ("rx", "rz")


class TestStepFunctionCompiler:
    def _circuit(self):
        theta = Parameter("t")
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.rz(theta, 1)
        circuit.cx(0, 1)
        return circuit

    def test_zero_runtime_iterations(self):
        compiled = _compile(self._circuit(), [0.9])
        assert compiled.runtime_iterations == 0
        assert compiled.method == "step-function"

    def test_small_angles_compile_shorter(self):
        """The defining behavior: near-zero angles skip their pulses."""
        small = _compile(self._circuit(), [0.01])
        large = _compile(self._circuit(), [2.0])
        assert small.pulse_duration_ns < large.pulse_duration_ns

    def test_never_worse_than_flat_gate_based(self):
        """Each range duration ≤ Table 1, so the program can only shrink."""
        circuit = self._circuit()
        for angle in (-3.0, -1.0, -0.1, 0.0, 0.2, 1.4, 3.1):
            a = _compile(circuit, [angle]).pulse_duration_ns
            b = _compile(circuit, [angle], strategy="gate").pulse_duration_ns
            assert a <= b + 1e-9

    def test_angle_wrapping_in_compile(self):
        a = _compile(self._circuit(), [0.1])
        b = _compile(self._circuit(), [0.1 + 2 * math.pi])
        assert a.pulse_duration_ns == pytest.approx(b.pulse_duration_ns)

    def test_unbound_circuit_rejected(self):
        with pytest.raises(CompilationError):
            _compile(self._circuit())

    def test_dict_values_accepted(self):
        circuit = self._circuit()
        (theta,) = circuit.parameters
        compiled = _compile(circuit, {theta: 0.5})
        assert compiled.pulse_duration_ns > 0

    def test_all_virtual_circuit_has_zero_duration(self):
        circuit = QuantumCircuit(1)
        circuit.rz(0.1, 0)
        circuit.rz(-0.2, 0)
        compiled = _compile(circuit)
        assert compiled.pulse_duration_ns == 0.0


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=-10.0, max_value=10.0, allow_nan=False))
def test_wrap_is_idempotent_and_in_range(angle):
    """Property: wrapping lands in (-π, π] and is idempotent."""
    wrapped = StepFunctionTable.wrap(angle)
    assert -math.pi < wrapped <= math.pi
    assert StepFunctionTable.wrap(wrapped) == pytest.approx(wrapped)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False),
        min_size=1,
        max_size=6,
    )
)
def test_step_function_dominates_flat_lookup(angles):
    """Property: the step-function program never exceeds plain gate-based."""
    params = [Parameter(f"t{i}") for i in range(len(angles))]
    circuit = QuantumCircuit(2)
    for i, p in enumerate(params):
        circuit.rz(p, i % 2)
        if i % 2 == 0:
            circuit.cx(0, 1)
    step = _compile(circuit, angles)
    flat = _compile(circuit, angles, strategy="gate")
    assert step.pulse_duration_ns <= flat.pulse_duration_ns + 1e-9
