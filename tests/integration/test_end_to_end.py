"""Integration tests: the paper's claims, end to end, at reduced scale."""

import numpy as np
import pytest

from repro.analysis.speedup import SpeedupRow
from repro.pulse.device import GmonDevice
from repro.pulse.grape.engine import GrapeHyperparameters, GrapeSettings
from repro.qaoa import QAOADriver, maxcut_problem, qaoa_circuit
from repro.service import CompilationService, CompileRequest, ServiceConfig
from repro.transpile.passes import transpile
from repro.transpile.topology import line_topology
from repro.vqe import VQEDriver, get_molecule, h2_hamiltonian

SETTINGS = GrapeSettings(dt_ns=0.25, target_fidelity=0.99)
HYPER = GrapeHyperparameters(learning_rate=0.05, decay_rate=0.002, max_iterations=150)


def _service(device=None, **kwargs):
    """A fresh service: empty pulse cache."""
    return CompilationService(
        config=ServiceConfig(executor="serial"),
        device=device,
        settings=SETTINGS,
        hyperparameters=HYPER,
        **kwargs,
    )


def _compile(device, circuit, values, strategy, **request_fields):
    """One request on a fresh service; its :class:`CompileResult`."""
    with _service(device) as service:
        return service.compile(
            CompileRequest(circuit, values, strategy=strategy, **request_fields)
        )


@pytest.fixture(scope="module")
def qaoa_k4():
    """The 4-node clique QAOA p=1 circuit, transpiled — Figure 2's workload."""
    problem = maxcut_problem("clique", 4, seed=0)
    return transpile(qaoa_circuit(problem, 1))


@pytest.fixture(scope="module")
def device():
    return GmonDevice(line_topology(4))


@pytest.fixture(scope="module")
def theta(qaoa_k4):
    rng = np.random.default_rng(0)
    return list(rng.uniform(0.2, 1.2, size=len(qaoa_k4.parameters)))


class TestCompilationOrdering:
    """Table 4's invariant: gate ≥ strict ≥ flexible, GRAPE ≤ strict."""

    @pytest.fixture(scope="class")
    def durations(self, qaoa_k4, device, theta):
        gate = _compile(device, qaoa_k4, theta, "gate").compiled
        grape = _compile(
            device, qaoa_k4, theta, "full-grape", max_block_width=3,
            use_cache=False,
        ).compiled
        strict = _compile(
            device, qaoa_k4, theta, "strict-partial", max_block_width=3
        ).compiled
        flexible = _compile(
            device, qaoa_k4, theta, "flexible-partial", max_block_width=3,
            options={
                "tuning_samples": 1,
                "learning_rates": (0.05,),
                "decay_rates": (0.002,),
            },
        ).compiled
        return {
            "gate": gate,
            "grape": grape,
            "strict": strict,
            "flexible": flexible,
        }

    def test_speedup_ordering(self, durations):
        row = SpeedupRow(
            "qaoa_k4",
            durations["gate"].pulse_duration_ns,
            durations["strict"].pulse_duration_ns,
            durations["flexible"].pulse_duration_ns,
            durations["grape"].pulse_duration_ns,
        )
        assert row.ordering_holds(tolerance_ns=0.5)

    def test_grape_speedup_significant(self, durations):
        speedup = (
            durations["gate"].pulse_duration_ns / durations["grape"].pulse_duration_ns
        )
        assert speedup > 1.3  # paper reports ~2x at p=1 on K4

    def test_flexible_latency_below_full_grape(self, durations):
        assert (
            durations["flexible"].runtime_iterations
            < durations["grape"].runtime_iterations
        )

    def test_strict_zero_runtime_iterations(self, durations):
        assert durations["strict"].runtime_iterations == 0


class TestVariationalLoops:
    def test_vqe_with_strict_compiler_in_loop(self):
        molecule = get_molecule("H2")
        ansatz = transpile(molecule.ansatz())
        # Precompile once; the plan compiler replays at every iteration.
        strict = _compile(
            GmonDevice(line_topology(2)), ansatz, None, "strict-partial",
            max_block_width=2,
        ).compiler
        driver = VQEDriver(
            h2_hamiltonian(), ansatz, max_iterations=60, seed=3, compiler=strict
        )
        result = driver.run()
        # Compilation inside the loop must be essentially free.
        assert result.compile_latency_s < 0.1
        assert len(result.compile_pulse_ns) == result.iterations
        assert result.optimal_energy < -1.0

    def test_qaoa_with_gate_compiler_in_loop(self):
        problem = maxcut_problem("clique", 4, seed=0)
        with _service(default_strategy="gate") as service:
            driver = QAOADriver(problem, p=1, max_iterations=60, seed=0,
                                compiler=service)
            result = driver.run()
        assert result.approximation_ratio > 0.5


class TestTable2Shape:
    def test_vqe_runtime_grows_with_molecule_size(self):
        from repro.circuits.dag import critical_path_ns

        h2 = critical_path_ns(transpile(get_molecule("H2").ansatz()))
        lih = critical_path_ns(transpile(get_molecule("LiH").ansatz()))
        assert lih > 5 * h2  # paper: 35 ns vs 872 ns
