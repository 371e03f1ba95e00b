"""Tests for molecular Hamiltonians and the VQE loop."""

import numpy as np
import pytest

from repro.errors import VQEError
from repro.sim.pauli import PauliSum
from repro.vqe.driver import VQEDriver
from repro.vqe.hamiltonians import h2_hamiltonian, synthetic_molecular_hamiltonian
from repro.vqe.molecules import get_molecule
from repro.vqe.uccsd import uccsd_ansatz


class TestHamiltonians:
    def test_h2_ground_energy(self):
        # The textbook value for H2 at 0.735 Å in this reduced encoding.
        assert np.isclose(h2_hamiltonian().ground_state_energy(), -1.8572750, atol=1e-5)

    def test_h2_hermitian(self):
        m = h2_hamiltonian().matrix()
        assert np.allclose(m, m.conj().T)

    def test_synthetic_seeded(self):
        a = synthetic_molecular_hamiltonian(4, seed=3)
        b = synthetic_molecular_hamiltonian(4, seed=3)
        assert np.allclose(a.matrix(), b.matrix())

    def test_synthetic_hermitian(self):
        m = synthetic_molecular_hamiltonian(3, seed=0).matrix()
        assert np.allclose(m, m.conj().T)

    def test_synthetic_invalid_width(self):
        with pytest.raises(VQEError):
            synthetic_molecular_hamiltonian(0)


class TestVQEDriver:
    def test_h2_converges_to_ground_state(self):
        driver = VQEDriver(
            h2_hamiltonian(), get_molecule("H2").ansatz(), max_iterations=400, seed=2
        )
        result = driver.run()
        assert result.error_to_exact < 1e-4

    def test_energy_at_zero_parameters(self):
        h = h2_hamiltonian()
        driver = VQEDriver(h, get_molecule("H2").ansatz(), seed=0)
        energy = driver.energy([0.0, 0.0, 0.0])
        # Reference state energy must be above the ground state.
        assert energy >= h.ground_state_energy() - 1e-9

    def test_width_mismatch_rejected(self):
        with pytest.raises(VQEError):
            VQEDriver(h2_hamiltonian(), uccsd_ansatz(3, 1, 2))

    def test_unknown_optimizer_rejected(self):
        with pytest.raises(VQEError):
            VQEDriver(h2_hamiltonian(), get_molecule("H2").ansatz(), optimizer="adam")

    def test_spsa_improves_energy(self):
        driver = VQEDriver(
            h2_hamiltonian(),
            get_molecule("H2").ansatz(),
            optimizer="spsa",
            max_iterations=120,
            seed=4,
        )
        result = driver.run()
        start = driver.energy(np.zeros(3))
        assert result.optimal_energy <= start + 1e-9

    def test_shot_noise_reproducible(self):
        driver = VQEDriver(
            h2_hamiltonian(), get_molecule("H2").ansatz(), shots=100, seed=7
        )
        noisy = driver.energy([0.1, 0.1, 0.1])
        exact = VQEDriver(
            h2_hamiltonian(), get_molecule("H2").ansatz(), seed=7
        ).energy([0.1, 0.1, 0.1])
        assert noisy != exact  # noise applied

    def test_history_recorded(self):
        driver = VQEDriver(
            h2_hamiltonian(), get_molecule("H2").ansatz(), max_iterations=50, seed=1
        )
        result = driver.run()
        assert result.iterations == len(result.energy_history) > 0

    def test_callback_invoked(self):
        calls = []
        driver = VQEDriver(
            h2_hamiltonian(), get_molecule("H2").ansatz(), max_iterations=20, seed=1
        )
        driver.run(callback=lambda i, x, e: calls.append(i))
        assert len(calls) > 0

    def test_optimizer_loop_through_a_service(self):
        """The driver's compiler hook accepts a long-lived service: every
        iteration recompiles through shared dedup state, so only the first
        iteration dispatches the θ-independent blocks."""
        from repro.pulse.device import GmonDevice
        from repro.pulse.grape.engine import GrapeHyperparameters, GrapeSettings
        from repro.service import CompilationService, ServiceConfig
        from repro.transpile.topology import line_topology
        from repro.circuits.circuit import QuantumCircuit
        from repro.circuits.parameters import Parameter

        # The fixed entangler tile (0,1) is disjoint from the θ tile (2,3),
        # so it is identical at every iteration's parametrization.
        ansatz = QuantumCircuit(4)
        ansatz.h(0)
        ansatz.cx(0, 1)
        ansatz.rz(Parameter("t0"), 2)
        ansatz.cx(2, 3)
        hamiltonian = synthetic_molecular_hamiltonian(4, seed=1)
        with CompilationService(
            config=ServiceConfig(executor="serial"),
            device=GmonDevice(line_topology(4)),
            settings=GrapeSettings(dt_ns=0.5, target_fidelity=0.9),
            hyperparameters=GrapeHyperparameters(0.05, 0.002, max_iterations=60),
            max_block_width=2,
        ) as service:
            driver = VQEDriver(
                hamiltonian, ansatz, max_iterations=4, seed=0, compiler=service
            )
            result = driver.run()
        assert result.iterations >= 2
        assert len(result.compile_pulse_ns) == result.iterations
        stats = result.compile_stats
        assert stats is not None
        assert stats["requests"]["by_strategy"] == {"full-grape": result.iterations}
        # Iterations beyond the first reused blocks instead of redispatching.
        assert stats["cache"]["hits"] > 0

    def test_wrong_initial_length(self):
        driver = VQEDriver(h2_hamiltonian(), get_molecule("H2").ansatz())
        with pytest.raises(VQEError):
            driver.run(initial_parameters=[0.1])
