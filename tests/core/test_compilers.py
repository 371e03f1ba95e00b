"""Tests for the four compilation strategies on a small variational circuit,
each compiled through a fresh :class:`~repro.service.CompilationService`.

These are the behavioural contracts of the paper:

* gate-based duration = scheduled Table-1 critical path;
* full GRAPE ≤ gate-based (never worse, via fallback);
* strict ≤ gate-based with *zero* runtime GRAPE iterations;
* flexible ≤ strict (deeper slices) with far fewer runtime iterations
  than full GRAPE.
"""

import numpy as np
import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.parameters import Parameter
from repro.core.compiler import BlockPulseCompiler
from repro.errors import CompilationError
from repro.pulse.device import GmonDevice
from repro.pulse.grape.engine import GrapeHyperparameters, GrapeSettings
from repro.service import CompilationService, CompileRequest, ServiceConfig
from repro.transpile.schedule import asap_schedule
from repro.transpile.topology import line_topology

SETTINGS = GrapeSettings(dt_ns=0.25, target_fidelity=0.99)
HYPER = GrapeHyperparameters(learning_rate=0.05, decay_rate=0.002, max_iterations=150)
THETA = [0.7, -1.3]


def _service(device):
    """A fresh service: empty pulse cache."""
    return CompilationService(
        config=ServiceConfig(executor="serial"),
        device=device,
        settings=SETTINGS,
        hyperparameters=HYPER,
    )


def _compile(device, circuit, values, strategy, **request_fields):
    """One request on a fresh service; its :class:`CompileResult`."""
    with _service(device) as service:
        return service.compile(
            CompileRequest(circuit, values, strategy=strategy, **request_fields)
        )


@pytest.fixture(scope="module")
def ansatz():
    t0, t1 = Parameter("theta_0"), Parameter("theta_1")
    qc = QuantumCircuit(2, name="tiny_ansatz")
    qc.h(0).h(1).cx(0, 1)
    qc.rz(t0, 1)
    qc.cx(0, 1)
    qc.rz(t1, 0)
    qc.h(0)
    return qc


@pytest.fixture(scope="module")
def device():
    return GmonDevice(line_topology(2))


@pytest.fixture(scope="module")
def gate_result(ansatz, device):
    return _compile(device, ansatz, THETA, "gate").compiled


@pytest.fixture(scope="module")
def grape_result(ansatz, device):
    # Uncached: the honest per-iteration full-GRAPE cost.
    return _compile(
        device, ansatz, THETA, "full-grape", max_block_width=2, use_cache=False
    ).compiled


@pytest.fixture(scope="module")
def strict_compiler(ansatz, device):
    return _compile(
        device, ansatz, None, "strict-partial", max_block_width=2
    ).compiler


class TestGateBased:
    def test_duration_matches_schedule(self, ansatz, gate_result):
        bound = ansatz.bind_parameters(THETA)
        assert np.isclose(gate_result.pulse_duration_ns, asap_schedule(bound).duration_ns)

    def test_zero_grape_iterations(self, gate_result):
        assert gate_result.runtime_iterations == 0

    def test_rejects_unbound(self, ansatz, device):
        with pytest.raises(CompilationError):
            _compile(device, ansatz, None, "gate")

    def test_method_tag(self, gate_result):
        assert gate_result.method == "gate"


class TestFullGrape:
    def test_beats_or_ties_gate_based(self, gate_result, grape_result):
        assert grape_result.pulse_duration_ns <= gate_result.pulse_duration_ns + 1e-9

    def test_runs_grape(self, grape_result):
        assert grape_result.runtime_iterations > 0

    def test_rejects_unbound(self, ansatz, device):
        with pytest.raises(CompilationError):
            _compile(device, ansatz, None, "full-grape")

    def test_cache_accelerates_second_compile(self, ansatz, device):
        bound = ansatz.bind_parameters(THETA)
        request = CompileRequest(bound, strategy="full-grape", max_block_width=2)
        with _service(device) as service:
            first = service.compile(request).compiled
            second = service.compile(request).compiled
        assert second.cache_hits == second.blocks_compiled
        assert second.runtime_iterations == 0
        assert np.isclose(second.pulse_duration_ns, first.pulse_duration_ns)


class TestStrict:
    def test_not_worse_than_gate_based(self, strict_compiler, gate_result):
        result = strict_compiler.compile(THETA)
        assert result.pulse_duration_ns <= gate_result.pulse_duration_ns + 1e-9

    def test_zero_runtime_iterations(self, strict_compiler):
        result = strict_compiler.compile(THETA)
        assert result.runtime_iterations == 0

    def test_runtime_latency_negligible(self, strict_compiler):
        result = strict_compiler.compile(THETA)
        assert result.runtime_latency_s < 0.05

    def test_precompute_recorded(self, strict_compiler):
        assert strict_compiler.report.blocks_precompiled > 0
        assert strict_compiler.report.wall_time_s > 0

    def test_duration_independent_of_theta(self, strict_compiler):
        # Strict runtime duration uses fixed lookup Rz pulses: any θ gives
        # the same critical path.
        a = strict_compiler.compile([0.1, 0.2]).pulse_duration_ns
        b = strict_compiler.compile([2.9, -2.9]).pulse_duration_ns
        assert np.isclose(a, b)

    def test_missing_parameters_rejected(self, strict_compiler):
        with pytest.raises(CompilationError):
            strict_compiler.compile({})

    def test_binding_by_sequence_matches_dict(self, strict_compiler, ansatz):
        params = ansatz.parameters
        by_seq = strict_compiler.compile(THETA).pulse_duration_ns
        by_map = strict_compiler.compile(dict(zip(params, THETA))).pulse_duration_ns
        assert np.isclose(by_seq, by_map)


class TestFlexible:
    @pytest.fixture(scope="class")
    def flexible_compiler(self, ansatz, device):
        return _compile(
            device,
            ansatz,
            None,
            "flexible-partial",
            max_block_width=2,
            options={
                "tuning_samples": 2,
                "learning_rates": (0.03, 0.1),
                "decay_rates": (0.0, 0.01),
            },
        ).compiler

    def test_not_worse_than_strict(self, flexible_compiler, strict_compiler):
        flex = flexible_compiler.compile(THETA)
        strict = strict_compiler.compile(THETA)
        assert flex.pulse_duration_ns <= strict.pulse_duration_ns + 1e-9

    def test_fewer_runtime_iterations_than_full_grape(
        self, flexible_compiler, grape_result
    ):
        flex = flexible_compiler.compile(THETA)
        assert 0 < flex.runtime_iterations < grape_result.runtime_iterations

    def test_hyperopt_ran(self, flexible_compiler):
        assert flexible_compiler.report.hyperopt_trials > 0
        assert flexible_compiler.report.parametrized_blocks > 0

    def test_missing_parameters_rejected(self, flexible_compiler):
        with pytest.raises(CompilationError):
            flexible_compiler.compile({})


class TestBlockCompiler:
    def test_empty_block(self, device):
        compiler = BlockPulseCompiler(device, SETTINGS, HYPER)
        outcome = compiler.compile_block(QuantumCircuit(1), (0,))
        assert outcome.duration_ns == 0.0

    def test_parameterized_block_rejected(self, device):
        compiler = BlockPulseCompiler(device, SETTINGS, HYPER)
        qc = QuantumCircuit(1).rz(Parameter("theta_0"), 0)
        with pytest.raises(CompilationError):
            compiler.compile_block(qc, (0,))

    def test_grape_beats_gate_based_on_h_chain(self, device):
        compiler = BlockPulseCompiler(device, SETTINGS, HYPER)
        qc = QuantumCircuit(1).h(0).z(0).h(0)
        from repro.transpile.basis import decompose_to_basis

        outcome = compiler.compile_block(decompose_to_basis(qc), (0,))
        assert outcome.duration_ns <= outcome.gate_based_ns + 1e-9
