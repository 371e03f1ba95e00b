"""Tests for the eQASM-style pulse assembly layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import QuantumCircuit
from repro.circuits.parameters import Parameter
from repro.errors import PulseError
from repro.pulse.assembly import (
    MicroinstructionTable,
    ParametricRzOp,
    PulseAssembly,
    PulseOp,
    assembly_from_strict_plan,
)
from repro.pulse.schedule import PulseSchedule


def _schedule(qubits=(0,), steps=4, dt=0.25, value=0.1, source="grape"):
    controls = np.full((2, steps), value)
    return PulseSchedule(
        qubits=qubits, dt_ns=dt, controls=controls,
        channel_names=("c0", "c1"), source=source,
    )


class TestMicroinstructionTable:
    def test_define_and_get(self):
        table = MicroinstructionTable()
        table.define("x90", _schedule())
        assert "x90" in table
        assert table.get("x90").num_steps == 4

    def test_redefinition_rejected(self):
        table = MicroinstructionTable()
        table.define("u0", _schedule())
        with pytest.raises(PulseError):
            table.define("u0", _schedule())

    def test_undefined_lookup_rejected(self):
        with pytest.raises(PulseError):
            MicroinstructionTable().get("nope")

    def test_intern_deduplicates_identical_waveforms(self):
        table = MicroinstructionTable()
        a = table.intern(_schedule(value=0.1))
        b = table.intern(_schedule(value=0.1))
        c = table.intern(_schedule(value=0.2))
        assert a == b
        assert a != c
        assert len(table) == 2

    def test_intern_distinguishes_qubits(self):
        table = MicroinstructionTable()
        a = table.intern(_schedule(qubits=(0,)))
        b = table.intern(_schedule(qubits=(1,)))
        assert a != b


class TestParametricRzOp:
    def test_angle_linear_form(self):
        op = ParametricRzOp(
            qubits=(0,), gate_name="rz",
            coefficients=(("t0", 2.0), ("t1", -0.5)), offset=0.25,
        )
        assert op.angle({"t0": 1.0, "t1": 2.0}) == pytest.approx(2.0 - 1.0 + 0.25)

    def test_missing_parameter_rejected(self):
        op = ParametricRzOp((0,), "rz", (("t0", 1.0),), 0.0)
        with pytest.raises(PulseError):
            op.angle({})


class TestLinking:
    def _assembly(self):
        assembly = PulseAssembly(
            table=MicroinstructionTable(), parameter_names=("t0",)
        )
        assembly.append_pulse(_schedule(qubits=(0, 1), steps=8))
        assembly.append_rz((1,), "rz", (("t0", 1.0),))
        assembly.append_pulse(_schedule(qubits=(0, 1), steps=8))
        return assembly

    def test_link_produces_program(self):
        program = self._assembly().link({"t0": 0.7})
        assert len(program) == 3
        assert program.duration_ns > 0

    def test_link_with_sequence_values(self):
        assembly = self._assembly()
        assert assembly.link([0.7]).duration_ns == assembly.link({"t0": 0.7}).duration_ns

    def test_link_duration_is_angle_independent(self):
        """The lookup Rz pulse duration does not depend on the bound angle."""
        assembly = self._assembly()
        assert (
            assembly.link({"t0": 0.01}).duration_ns
            == assembly.link({"t0": 3.1}).duration_ns
        )

    def test_link_missing_value_rejected(self):
        with pytest.raises(PulseError):
            self._assembly().link({})

    def test_format_listing(self):
        text = self._assembly().format()
        assert ".table" in text and ".program" in text
        assert "pulse u0" in text
        assert "rz q1" in text


class TestSerialization:
    def _assembly(self):
        assembly = PulseAssembly(
            table=MicroinstructionTable(), parameter_names=("t0", "t1")
        )
        assembly.append_pulse(_schedule(qubits=(0, 1), steps=6, value=0.3))
        assembly.append_rz((0,), "rz", (("t0", -0.5),), offset=0.1)
        assembly.append_pulse(_schedule(qubits=(0, 1), steps=6, value=0.3))
        assembly.append_rz((1,), "rz", (("t1", 1.0),))
        return assembly

    def test_roundtrip_preserves_program(self):
        original = self._assembly()
        rebuilt = PulseAssembly.from_json(original.to_json())
        assert rebuilt.parameter_names == original.parameter_names
        assert len(rebuilt.ops) == len(original.ops)
        for a, b in zip(rebuilt.ops, original.ops):
            assert type(a) is type(b)

    def test_roundtrip_preserves_waveforms(self):
        original = self._assembly()
        rebuilt = PulseAssembly.from_json(original.to_json())
        for name in original.table.names:
            np.testing.assert_allclose(
                rebuilt.table.get(name).controls, original.table.get(name).controls
            )

    def test_roundtrip_link_equivalence(self):
        original = self._assembly()
        rebuilt = PulseAssembly.from_json(original.to_json())
        values = {"t0": 0.4, "t1": -1.2}
        assert rebuilt.link(values).duration_ns == pytest.approx(
            original.link(values).duration_ns
        )

    def test_bad_json_rejected(self):
        with pytest.raises(PulseError):
            PulseAssembly.from_json("{not json")

    def test_unknown_format_rejected(self):
        with pytest.raises(PulseError):
            PulseAssembly.from_json('{"format": "other/9"}')

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=12),
                st.floats(min_value=-0.6, max_value=0.6, allow_nan=False),
            ),
            min_size=1,
            max_size=5,
        )
    )
    def test_roundtrip_property(self, blocks):
        """Property: serialize → parse is lossless for any block sequence."""
        assembly = PulseAssembly(
            table=MicroinstructionTable(), parameter_names=("t0",)
        )
        for steps, value in blocks:
            assembly.append_pulse(_schedule(qubits=(0,), steps=steps, value=value))
            assembly.append_rz((0,), "rz", (("t0", 1.0),))
        rebuilt = PulseAssembly.from_json(assembly.to_json())
        assert rebuilt.link({"t0": 0.3}).duration_ns == pytest.approx(
            assembly.link({"t0": 0.3}).duration_ns
        )
        assert len(rebuilt.table) == len(assembly.table)


def _strict_plan(circuit, max_block_width):
    """The plan compiler of a precompile-only strict-partial request."""
    from repro.pulse.grape import GrapeHyperparameters, GrapeSettings
    from repro.service import CompilationService, CompileRequest, ServiceConfig

    with CompilationService(
        config=ServiceConfig(executor="serial"),
        settings=GrapeSettings(dt_ns=0.5, target_fidelity=0.95),
        hyperparameters=GrapeHyperparameters(0.05, 0.002, max_iterations=150),
    ) as service:
        return service.compile(
            CompileRequest(
                circuit,
                strategy="strict-partial",
                max_block_width=max_block_width,
            )
        ).compiler


class TestStrictPlanExport:
    def test_export_matches_strict_compile(self):
        """assembly.link must reproduce the strict compiler's program."""

        theta = Parameter("t0")
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.rz(theta, 1)
        circuit.cx(0, 1)
        compiler = _strict_plan(circuit, max_block_width=2)
        assembly = assembly_from_strict_plan(compiler)
        assert assembly.parameter_names == ("t0",)
        linked = assembly.link({"t0": 0.9})
        # Compare against the raw plan program (pre-fallback): same number
        # of schedules, same total duration.
        compiled = compiler.compile({theta: 0.9})
        assert len(linked) == compiled.blocks_compiled
        text = assembly.format()
        assert "rz" in text

    def test_export_roundtrips_through_json(self):
        theta = Parameter("a")
        circuit = QuantumCircuit(1)
        circuit.h(0)
        circuit.rz(theta * 0.5, 0)
        circuit.h(0)
        compiler = _strict_plan(circuit, max_block_width=1)
        assembly = assembly_from_strict_plan(compiler)
        rebuilt = PulseAssembly.from_json(assembly.to_json())
        assert rebuilt.link({"a": 1.0}).duration_ns == pytest.approx(
            assembly.link({"a": 1.0}).duration_ns
        )
