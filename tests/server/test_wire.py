"""Wire-codec contracts: fingerprint stability and bit-identical results.

The two load-bearing properties of :mod:`repro.server.wire`:

* a circuit that crosses the wire keeps its exact
  ``content_fingerprint()`` — numeric angles by bit-exact float value,
  symbolic angles by their parameter skeleton — so the server hits the
  same cache slots an in-process caller would;
* a compile result round-trips with bit-identical control samples.

Plus the rejection surface: malformed payloads, unknown gates, live-object
options, and wire-version mismatches must raise :class:`WireError` (the
server's 400), never a bare ``KeyError``/``TypeError``.
"""

from __future__ import annotations

import json

import pytest

from repro.circuits import Parameter, QuantumCircuit
from repro.server import WireError, decode_request, encode_request
from repro.pulse.grape.cost import RegularizationSettings
from repro.pulse.grape.engine import GrapeHyperparameters, GrapeSettings
from repro.server.wire import (
    WIRE_VERSION,
    _decode_schedule,
    _encode_schedule,
    decode_circuit,
    decode_compiled,
    decode_hyperparameters,
    decode_report,
    decode_result,
    decode_settings,
    encode_circuit,
    encode_compiled,
    encode_hyperparameters,
    encode_report,
    encode_result,
    encode_settings,
)
from repro.service import CompileRequest


def _roundtrip(payload):
    """Force a real JSON round-trip — what the network actually does."""
    return json.loads(json.dumps(payload))


def _symbolic_circuit() -> QuantumCircuit:
    """Constants, bare parameters, and a linear expression in one circuit."""
    theta0, theta1 = Parameter("theta_0"), Parameter("theta_1")
    circuit = QuantumCircuit(2, name="symbolic")
    circuit.h(0)
    circuit.rz(0.1234567891234567, 0)  # full double precision survives
    circuit.rz(theta0, 0)
    circuit.cx(0, 1)
    circuit.rz(2.0 * theta1 + 0.5, 1)
    return circuit


class TestCircuitCodec:
    def test_fingerprint_stable_across_the_wire(self, workload):
        circuit, _ = workload
        decoded = decode_circuit(_roundtrip(encode_circuit(circuit)))
        assert decoded.content_fingerprint() == circuit.content_fingerprint()
        assert decoded.num_qubits == circuit.num_qubits
        assert decoded.count_ops() == circuit.count_ops()

    def test_symbolic_angles_round_trip(self):
        circuit = _symbolic_circuit()
        decoded = decode_circuit(_roundtrip(encode_circuit(circuit)))
        assert decoded.content_fingerprint() == circuit.content_fingerprint()
        assert decoded.parameters == circuit.parameters
        # Parameter interning: both rz gates bind through the same objects
        # a locally-built ansatz would share.
        assert len(decoded.parameters) == 2

    @pytest.mark.parametrize(
        "payload",
        [
            {"gates": []},  # missing width
            {"width": 0, "gates": []},  # non-positive width
            {"width": 2, "gates": [{"qubits": [0]}]},  # missing gate name
            {"width": 2, "gates": [{"gate": "warp", "qubits": [0]}]},
            {"width": 2, "gates": [{"gate": "cx", "qubits": [0, 5]}]},
            {
                "width": 2,
                "gates": [{"gate": "rz", "qubits": [0], "params": [["?", 1]]}],
            },
        ],
        ids=[
            "missing-width",
            "zero-width",
            "missing-gate",
            "unknown-gate",
            "qubit-out-of-range",
            "bad-angle-tag",
        ],
    )
    def test_malformed_circuits_raise_wire_error(self, payload):
        with pytest.raises(WireError):
            decode_circuit(payload)


class TestRequestCodec:
    def test_full_round_trip(self, make_request):
        request = make_request(
            "strict-partial", max_block_width=2, options={"tag": "t"}
        )
        decoded = decode_request(_roundtrip(encode_request(request)))
        assert decoded.strategy == request.strategy
        assert decoded.max_block_width == 2
        assert decoded.use_cache is True
        assert decoded.options == {"tag": "t"}
        assert list(decoded.normalized_values()) == list(
            request.normalized_values()
        )
        assert (
            decoded.circuit.content_fingerprint()
            == request.circuit.content_fingerprint()
        )
        assert decoded.settings == request.settings
        assert decoded.hyperparameters == request.hyperparameters

    def test_mapping_values_are_not_wirable(self, workload):
        circuit, _ = workload
        name = circuit.parameters[0].name
        request = CompileRequest(circuit, {name: 0.3}, strategy="gate")
        with pytest.raises(WireError, match="mapping-form values"):
            encode_request(request)

    def test_unwirable_options_rejected(self, make_request):
        payload = encode_request(make_request("gate"))
        payload["options"] = {"pass_manager": "default"}
        with pytest.raises(WireError, match="live object"):
            decode_request(payload)

    def test_wire_version_mismatch_rejected(self, make_request):
        payload = encode_request(make_request("gate"))
        payload["wire_version"] = WIRE_VERSION + 1
        with pytest.raises(WireError, match="wire version mismatch"):
            decode_request(payload)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda p: p.pop("circuit"),
            lambda p: p.pop("strategy"),
            lambda p: p.update(values={"theta": 1.0}),
            lambda p: p.update(values=["x"]),
            lambda p: p.update(options=[1, 2]),
            lambda p: p.update(max_block_width="wide"),
            lambda p: p.update(settings={"regularization": {"bogus": 1}}),
            lambda p: p.update(hyperparameters={"optimizer": "sgd9000"}),
        ],
        ids=[
            "no-circuit",
            "no-strategy",
            "dict-values",
            "non-numeric-values",
            "list-options",
            "string-block-width",
            "bad-settings",
            "bad-hyperparameters",
        ],
    )
    def test_malformed_requests_raise_wire_error(self, make_request, mutate):
        payload = encode_request(make_request("gate"))
        mutate(payload)
        with pytest.raises(WireError):
            decode_request(payload)

    def test_non_object_body_rejected(self):
        with pytest.raises(WireError):
            decode_request([1, 2, 3])


class TestGrapeCodec:
    @pytest.mark.parametrize(
        "settings",
        [
            GrapeSettings(),
            GrapeSettings(dt_ns=0.5, target_fidelity=0.95, seed=7),
            GrapeSettings(
                dt_ns=0.25,
                regularization=RegularizationSettings.realistic(),
                plateau_patience=5,
                plateau_tolerance=1e-9,
            ),
        ],
        ids=["preset-deferring", "coarse", "realistic"],
    )
    def test_settings_round_trip(self, settings):
        assert decode_settings(_roundtrip(encode_settings(settings))) == settings

    @pytest.mark.parametrize(
        "hyper",
        [
            GrapeHyperparameters(),
            GrapeHyperparameters(0.05, 0.002, max_iterations=80),
            GrapeHyperparameters(0.1, 0.0, max_iterations=1, optimizer="lbfgs"),
        ],
        ids=["preset-deferring", "adam", "lbfgs"],
    )
    def test_hyperparameters_round_trip(self, hyper):
        decoded = decode_hyperparameters(_roundtrip(encode_hyperparameters(hyper)))
        assert decoded == hyper

    @pytest.mark.parametrize(
        "encode, decode",
        [
            (encode_settings, decode_settings),
            (encode_hyperparameters, decode_hyperparameters),
            (encode_compiled, decode_compiled),
            (encode_report, decode_report),
        ],
        ids=["settings", "hyperparameters", "compiled", "report"],
    )
    def test_absent_value_stays_absent(self, encode, decode):
        assert encode(None) is None
        assert decode(None) is None

    @pytest.mark.parametrize(
        "decode, payload",
        [
            (decode_settings, "fast"),
            (decode_settings, {"regularization": [1e-3]}),
            (decode_settings, {"regularization": {"turbo_weight": 1.0}}),
            (decode_hyperparameters, [0.05]),
            (decode_hyperparameters, {"optimizer": "sgd"}),
            (decode_hyperparameters, {"max_iterations": 0}),
        ],
        ids=[
            "settings-not-an-object",
            "regularization-not-an-object",
            "unknown-regularization-field",
            "hyperparameters-not-an-object",
            "unknown-optimizer",
            "zero-iterations",
        ],
    )
    def test_malformed_payloads_raise_wire_error(self, decode, payload):
        with pytest.raises(WireError):
            decode(payload)

    def test_unknown_settings_keys_are_dropped(self):
        assert decode_settings({"warp": 9, "seed": 3}) == GrapeSettings(seed=3)


class TestScheduleCodec:
    def test_controls_round_trip_bit_identically(self):
        """Every float64 sample survives JSON exactly, signed zeros and
        subnormals included."""
        import numpy as np

        from repro.pulse.schedule import PulseSchedule

        controls = np.array(
            [[0.1, -0.0, 5e-324], [1 / 3, -2.5e-17, 123456.789]]
        )
        schedule = PulseSchedule(
            qubits=(2, 3),
            dt_ns=0.5,
            controls=controls,
            channel_names=("x2", "x3"),
            source="grape",
        )
        decoded = _decode_schedule(_roundtrip(_encode_schedule(schedule)))
        assert decoded.controls.tobytes() == controls.tobytes()
        assert decoded.controls.shape == controls.shape
        assert decoded.qubits == (2, 3)
        assert decoded.dt_ns == 0.5
        assert decoded.channel_names == ("x2", "x3")
        assert decoded.source == "grape"


class TestResultCodec:
    def test_result_round_trips_bit_identical(
        self, service, make_request, programs_identical
    ):
        request = make_request("strict-partial", max_block_width=2)
        result = service.compile(request)
        decoded = decode_result(
            _roundtrip(encode_result(result)), request=request
        )
        assert decoded.strategy == result.strategy
        assert decoded.request is request
        assert programs_identical(
            decoded.compiled.program, result.compiled.program
        )
        assert (
            decoded.compiled.pulse_duration_ns
            == result.compiled.pulse_duration_ns
        )
        assert decoded.compiled.method == result.compiled.method

    def test_precompile_report_survives(self, service, make_request):
        request = make_request("strict-partial", max_block_width=2)
        result = service.compile(request)
        decoded = decode_result(_roundtrip(encode_result(result)))
        report = decoded.precompile_report
        assert report is not None
        assert report.method == result.precompile_report.method
        assert (
            report.blocks_precompiled
            == result.precompile_report.blocks_precompiled
        )
        # Plan compilers stay server-side.
        assert decoded.compiler is None

    def test_bad_result_payload_raises_wire_error(self):
        with pytest.raises(WireError):
            decode_result({"compiled": {"schedules": "nope"}})

    def test_compiled_pulse_round_trips_bit_identical(
        self, service, make_request, programs_identical
    ):
        compiled = service.compile(make_request("full-grape")).compiled
        decoded = decode_compiled(_roundtrip(encode_compiled(compiled)))
        assert programs_identical(decoded.program, compiled.program)
        assert decoded.program.duration_ns == compiled.program.duration_ns
        for name in (
            "method",
            "pulse_duration_ns",
            "runtime_latency_s",
            "runtime_iterations",
            "blocks_compiled",
            "cache_hits",
        ):
            assert getattr(decoded, name) == getattr(compiled, name), name

    def test_report_defaults_fill_missing_counts(self):
        report = decode_report(
            {
                "method": "strict",
                "wall_time_s": 1.5,
                "grape_iterations": 40,
                "blocks_precompiled": 3,
            }
        )
        assert (report.method, report.grape_iterations) == ("strict", 40)
        assert report.parametrized_blocks == 0
        assert report.cache_hits == 0
        assert report.executor == "serial"
        assert report.cache_stats == {} and report.metadata == {}

    @pytest.mark.parametrize(
        "decode, payload",
        [
            (decode_compiled, {"schedules": []}),
            (decode_compiled, {"method": "gate", "schedules": 5}),
            (decode_report, {"method": "strict"}),
            (decode_report, [1]),
        ],
        ids=[
            "compiled-missing-method",
            "compiled-schedules-not-a-list",
            "report-missing-counts",
            "report-not-an-object",
        ],
    )
    def test_bad_part_payload_raises_wire_error(self, decode, payload):
        with pytest.raises(WireError):
            decode(payload)
