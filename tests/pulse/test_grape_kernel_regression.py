"""Regression guard for the vectorized GRAPE kernel.

The kernel rewrite (batched divided differences, fused contractions,
prepared operand layouts, reused scan buffers) must be a pure performance
change: on fixed seeds it has to reproduce the pre-rewrite ``(cost,
gradient, fidelity)`` to ≤1e-10.  The frozen pre-rewrite kernel lives in
``benchmarks/grape_reference.py`` (one copy, shared with the perf
harness), and one configuration is additionally pinned to golden numbers
so *any* future kernel change that moves the numerics shows up.

The per-pulse-length plans were a pure overhead cut with a stricter
contract: the whole optimizer loop must reproduce the kernel and loop as
they stood before the plans *bit for bit* (control bytes, iteration count,
fidelity history).  That frozen copy lives in the same module.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.linalg.expm import _divided_differences, expm_hermitian
from repro.linalg.random import haar_random_unitary
from repro.pulse.device import GmonDevice
from repro.pulse.grape.cost import RegularizationSettings
from repro.pulse.grape.engine import (
    GrapeHyperparameters,
    GrapeSettings,
    optimize_pulse,
)
from repro.pulse.hamiltonian import build_control_set
from repro.transpile.topology import line_topology

BENCH_DIR = str(Path(__file__).resolve().parents[2] / "benchmarks")
if BENCH_DIR not in sys.path:
    sys.path.insert(0, BENCH_DIR)
from grape_reference import (  # noqa: E402
    kernel_fixture as _fixture,
    pre_plan_optimize_pulse,
    reference_cost_and_gradient as _reference_cost_and_gradient,
)

TOLERANCE = 1e-10


class TestKernelMatchesPreRewrite:
    @pytest.mark.parametrize(
        "n_qubits,levels,n_steps",
        [(1, 2, 8), (2, 2, 16), (2, 3, 12), (3, 2, 10), (3, 3, 6)],
    )
    def test_fixed_seed_equivalence(self, n_qubits, levels, n_steps):
        cost, controls = _fixture(n_qubits, levels, n_steps)
        ref_cost, ref_grad, ref_fid = _reference_cost_and_gradient(cost, controls)
        new_cost, new_grad, new_fid = cost.cost_and_gradient(controls)
        assert abs(new_cost - ref_cost) <= TOLERANCE
        assert abs(new_fid - ref_fid) <= TOLERANCE
        assert np.abs(new_grad - ref_grad).max() <= TOLERANCE

    def test_with_realistic_regularization(self):
        cost, controls = _fixture(
            2, 2, 20, regularization=RegularizationSettings.realistic()
        )
        ref = _reference_cost_and_gradient(cost, controls)
        new = cost.cost_and_gradient(controls)
        assert abs(new[0] - ref[0]) <= TOLERANCE
        assert np.abs(new[1] - ref[1]).max() <= TOLERANCE

    def test_golden_values_pinned(self):
        """Absolute numbers for one fixed configuration (dt=0.2, seeds 7/42)."""
        cost, controls = _fixture(2, 2, 16)
        value, gradient, fidelity = cost.cost_and_gradient(controls)
        assert value == pytest.approx(0.9444796133993676, abs=TOLERANCE)
        assert fidelity == pytest.approx(0.05552038660063236, abs=TOLERANCE)
        assert float(np.sum(gradient)) == pytest.approx(
            -0.727636398095886, abs=TOLERANCE
        )
        assert float(np.abs(gradient).sum()) == pytest.approx(
            0.9788734937252378, abs=TOLERANCE
        )
        np.testing.assert_allclose(
            gradient[0, :3],
            [-0.031077768007969797, -0.03233770420748866, -0.03257005343216679],
            atol=TOLERANCE,
        )

    def test_repeated_calls_are_bit_identical(self):
        """Reused scan buffers must not leak state between iterations."""
        cost, controls = _fixture(2, 3, 14)
        first = cost.cost_and_gradient(controls)
        second = cost.cost_and_gradient(controls)
        assert first[0] == second[0] and first[2] == second[2]
        assert np.array_equal(first[1], second[1])

    def test_changing_step_count_reuses_cost_object(self):
        """Minimum-time search probes several lengths on one GrapeCost."""
        cost, controls = _fixture(2, 2, 16)
        short = controls[:, :9]
        ref = _reference_cost_and_gradient(cost, short)
        new = cost.cost_and_gradient(short)
        assert abs(new[0] - ref[0]) <= TOLERANCE
        assert np.abs(new[1] - ref[1]).max() <= TOLERANCE
        # ... and going back to the original length still matches.
        again = cost.cost_and_gradient(controls)
        ref_full = _reference_cost_and_gradient(cost, controls)
        assert abs(again[0] - ref_full[0]) <= TOLERANCE


class TestSharedPropagatorPath:
    def test_propagate_uses_expm_hermitian(self):
        """``propagate`` and the kernel share one propagator code path."""
        from repro.linalg.scan import forward_partial_products

        cost, controls = _fixture(2, 2, 12)
        total = cost.propagate(controls)
        hams = cost._step_hamiltonians(controls)
        props = expm_hermitian(hams, cost.dt_ns)
        # The blocked scan is the single propagation path everywhere:
        # ``propagate`` must match it exactly, and the sequential product
        # to float reassociation accuracy.
        np.testing.assert_array_equal(total, forward_partial_products(props)[-1])
        expected = np.eye(props.shape[-1], dtype=complex)
        for k in range(props.shape[0]):
            expected = props[k] @ expected
        np.testing.assert_allclose(total, expected, atol=TOLERANCE)
        # And the product is unitary.
        np.testing.assert_allclose(
            total @ total.conj().T, np.eye(total.shape[0]), atol=1e-12
        )


class TestBatchedDividedDifferences:
    def test_matches_per_step_loop(self):
        rng = np.random.default_rng(5)
        eigvals = rng.normal(size=(7, 6))
        eigvals[2, 3] = eigvals[2, 4]  # exact degeneracy in one slice
        dt = 0.31
        phases = np.exp(-1j * dt * eigvals)
        batched = _divided_differences(eigvals, phases, dt)
        assert batched.shape == (7, 6, 6)
        for k in range(7):
            single = _divided_differences(eigvals[k], phases[k], dt)
            np.testing.assert_array_equal(batched[k], single)

    def test_degenerate_diagonal_is_derivative(self):
        eigvals = np.array([[1.0, 1.0, 2.0]])
        dt = 0.2
        phases = np.exp(-1j * dt * eigvals)
        gamma = _divided_differences(eigvals, phases, dt)
        expected = -1j * dt * phases[0, 0]
        assert gamma[0, 0, 0] == pytest.approx(expected)
        assert gamma[0, 0, 1] == pytest.approx(expected)  # degenerate pair
        assert gamma[0, 1, 0] == pytest.approx(expected)


def _assert_bit_identical(control_set, target, num_steps, hyper, settings, initial=None):
    live = optimize_pulse(control_set, target, num_steps, hyper, settings, initial)
    controls, iterations, history = pre_plan_optimize_pulse(
        control_set, target, num_steps, hyper, settings, initial
    )
    assert live.iterations == iterations
    assert live.fidelity_history == history
    assert live.schedule.controls.tobytes() == controls.tobytes()
    return live


class TestOptimizePulseBitIdentical:
    """The live loop against the frozen pre-plan kernel and loop, exactly."""

    SETTINGS = GrapeSettings(dt_ns=0.5, target_fidelity=0.9999, seed=3)
    HYPER = GrapeHyperparameters(learning_rate=0.05, max_iterations=30)

    @pytest.fixture(scope="class")
    def qubit_pair(self):
        control_set = build_control_set(GmonDevice(line_topology(2)), (0, 1))
        return control_set, haar_random_unitary(4, seed=7)

    # Both sides of MIN_BLOCKED_STEPS for the forward (n) and backward
    # (n - 1) scans, with and without identity padding of the last chunk.
    @pytest.mark.parametrize("num_steps", [1, 2, 6, 7, 8, 9, 13, 50])
    def test_qubit_block(self, qubit_pair, num_steps):
        control_set, target = qubit_pair
        _assert_bit_identical(
            control_set, target, num_steps, self.HYPER, self.SETTINGS
        )

    def test_qutrit_block(self):
        device = GmonDevice(line_topology(2), levels=3)
        control_set = build_control_set(device, (0, 1))
        assert control_set.dim == 9
        _assert_bit_identical(
            control_set,
            haar_random_unitary(4, seed=11),
            9,
            self.HYPER,
            self.SETTINGS,
        )

    @pytest.mark.parametrize("num_steps", [2, 9])
    def test_realistic_regularization(self, qubit_pair, num_steps):
        control_set, target = qubit_pair
        settings = GrapeSettings(
            dt_ns=0.5,
            target_fidelity=0.9999,
            seed=3,
            regularization=RegularizationSettings.realistic(),
        )
        _assert_bit_identical(control_set, target, num_steps, self.HYPER, settings)

    def test_warm_start(self, qubit_pair):
        control_set, target = qubit_pair
        rng = np.random.default_rng(5)
        initial = (
            rng.uniform(-0.5, 0.5, size=(control_set.num_controls, 6))
            * control_set.max_amplitudes[:, None]
        )
        _assert_bit_identical(
            control_set, target, 6, self.HYPER, self.SETTINGS, initial
        )

    @pytest.mark.parametrize("num_steps", [6, 13])
    def test_lbfgs(self, qubit_pair, num_steps):
        control_set, target = qubit_pair
        hyper = GrapeHyperparameters(
            learning_rate=0.05, max_iterations=30, optimizer="lbfgs"
        )
        _assert_bit_identical(control_set, target, num_steps, hyper, self.SETTINGS)

    def test_converged_run(self, qubit_pair):
        """An early exit on the fidelity target stops both loops alike."""
        control_set, _ = qubit_pair
        settings = GrapeSettings(dt_ns=0.5, target_fidelity=0.99, seed=3)
        hyper = GrapeHyperparameters(learning_rate=0.05, max_iterations=200)
        live = _assert_bit_identical(
            control_set, np.eye(4, dtype=complex), 4, hyper, settings
        )
        assert live.converged
