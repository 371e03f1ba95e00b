"""Tests for the GRAPE optimizer loop and the minimum-time search."""

import numpy as np
import pytest

from repro.errors import GrapeError
from repro.pulse.device import GmonDevice
from repro.pulse.grape.cost import RegularizationSettings
from repro.pulse.grape.engine import GrapeHyperparameters, GrapeSettings, optimize_pulse
from repro.pulse.grape.time_search import minimum_time_pulse
from repro.pulse.hamiltonian import build_control_set
from repro.transpile.topology import line_topology

X = np.array([[0, 1], [1, 0]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
RZ90 = np.diag([np.exp(-0.25j * np.pi), np.exp(0.25j * np.pi)])


@pytest.fixture
def single_qubit_cs():
    return build_control_set(GmonDevice(line_topology(2)), [0])


class TestOptimizePulse:
    def test_x_gate_converges(self, single_qubit_cs, fast_settings):
        result = optimize_pulse(single_qubit_cs, X, num_steps=14, settings=fast_settings)
        assert result.converged
        assert result.fidelity >= fast_settings.target_fidelity

    def test_h_gate_converges(self, single_qubit_cs, fast_settings):
        result = optimize_pulse(single_qubit_cs, H, num_steps=10, settings=fast_settings)
        assert result.converged

    def test_rz_converges_fast(self, single_qubit_cs, fast_settings):
        result = optimize_pulse(
            single_qubit_cs, RZ90, num_steps=3, settings=fast_settings
        )
        assert result.converged

    def test_schedule_respects_amplitude_bounds(self, single_qubit_cs, fast_settings):
        result = optimize_pulse(single_qubit_cs, X, num_steps=14, settings=fast_settings)
        bounds = single_qubit_cs.max_amplitudes
        for row, bound in zip(result.schedule.controls, bounds):
            assert np.abs(row).max() <= bound + 1e-9

    def test_infeasible_time_does_not_converge(self, single_qubit_cs, fast_settings):
        # X needs ~2.5 ns; 2 steps of 0.25 ns cannot reach it.
        result = optimize_pulse(single_qubit_cs, X, num_steps=2, settings=fast_settings)
        assert not result.converged
        assert result.fidelity < fast_settings.target_fidelity

    def test_warm_start_shape_validation(self, single_qubit_cs, fast_settings):
        with pytest.raises(GrapeError):
            optimize_pulse(
                single_qubit_cs,
                X,
                num_steps=10,
                settings=fast_settings,
                initial=np.zeros((2, 5)),
            )

    def test_non_finite_initial_rejected(self, single_qubit_cs, fast_settings):
        bad = np.zeros((single_qubit_cs.num_controls, 10))
        bad[0, 3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            optimize_pulse(
                single_qubit_cs, X, num_steps=10,
                settings=fast_settings, initial=bad,
            )
        bad[0, 3] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            optimize_pulse(
                single_qubit_cs, X, num_steps=10,
                settings=fast_settings, initial=bad,
            )

    def test_overdriven_initial_rejected(self, single_qubit_cs, fast_settings):
        """A wrongly-scaled warm start (amps past the channel bounds) must
        fail loudly, not silently clip into a different pulse."""
        bad = np.zeros((single_qubit_cs.num_controls, 10))
        bad[0, :] = single_qubit_cs.max_amplitudes[0] * 10.0
        with pytest.raises(ValueError, match="exceed channel amplitude bounds"):
            optimize_pulse(
                single_qubit_cs, X, num_steps=10,
                settings=fast_settings, initial=bad,
            )

    def test_initial_at_the_bound_is_accepted(self, single_qubit_cs, fast_settings):
        at_bound = np.full(
            (single_qubit_cs.num_controls, 14), 0.0
        )
        at_bound[0, :] = single_qubit_cs.max_amplitudes[0]
        result = optimize_pulse(
            single_qubit_cs, X, num_steps=14,
            settings=fast_settings, initial=at_bound,
        )
        assert result.iterations >= 1

    def test_zero_steps_rejected(self, single_qubit_cs):
        with pytest.raises(GrapeError):
            optimize_pulse(single_qubit_cs, X, num_steps=0)

    @pytest.mark.parametrize("budget", [0, -1, -50])
    def test_iteration_budget_below_one_rejected(self, budget):
        # A zero budget used to return fidelity -1.0 and the unoptimized
        # start without complaint.
        with pytest.raises(GrapeError, match="max_iterations"):
            GrapeHyperparameters(max_iterations=budget)
        with pytest.raises(GrapeError, match="max_iterations"):
            GrapeHyperparameters().with_iterations(budget)

    def test_iteration_budget_of_one_runs_one_iteration(
        self, single_qubit_cs, fast_settings
    ):
        result = optimize_pulse(
            single_qubit_cs,
            X,
            num_steps=6,
            hyperparameters=GrapeHyperparameters(max_iterations=1),
            settings=fast_settings,
        )
        assert result.iterations == 1
        assert len(result.fidelity_history) == 1
        assert 0.0 <= result.fidelity <= 1.0

    def test_history_recorded(self, single_qubit_cs, fast_settings):
        result = optimize_pulse(single_qubit_cs, X, num_steps=14, settings=fast_settings)
        assert len(result.fidelity_history) == result.iterations

    def test_envelope_mode_zeroes_edges(self, single_qubit_cs):
        settings = GrapeSettings(
            dt_ns=0.25,
            target_fidelity=0.95,
            regularization=RegularizationSettings(enforce_envelope=True),
        )
        result = optimize_pulse(single_qubit_cs, X, num_steps=20, settings=settings)
        assert abs(result.schedule.controls[0, 0]) < 1e-6
        assert abs(result.schedule.controls[0, -1]) < 1e-6

    def test_two_qubit_cx(self, fast_settings, fast_hyper):
        cs = build_control_set(GmonDevice(line_topology(2)), [0, 1])
        cx = np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
        result = optimize_pulse(
            cs, cx, num_steps=18, hyperparameters=fast_hyper, settings=fast_settings
        )
        assert result.fidelity > 0.9  # convergence direction, fast settings


class TestMinimumTime:
    def test_x_minimum_near_analytic(self, single_qubit_cs, fast_settings):
        # Analytic minimum: θ/(2·Ω_max) = π/(2·2π·0.1) = 2.5 ns.
        result = minimum_time_pulse(
            single_qubit_cs, X, upper_bound_ns=5.0, settings=fast_settings,
            precision_ns=0.25,
        )
        assert result.converged
        assert 2.2 <= result.duration_ns <= 3.5

    def test_rz_much_faster_than_x(self, single_qubit_cs, fast_settings):
        rz = minimum_time_pulse(
            single_qubit_cs, RZ90, upper_bound_ns=2.0, settings=fast_settings,
            precision_ns=0.25,
        )
        x = minimum_time_pulse(
            single_qubit_cs, X, upper_bound_ns=5.0, settings=fast_settings,
            precision_ns=0.25,
        )
        # The 15x flux/charge asymmetry: Z rotations are far faster.
        assert rz.duration_ns < x.duration_ns

    def test_doubles_infeasible_upper_bound(self, single_qubit_cs, fast_settings):
        result = minimum_time_pulse(
            single_qubit_cs, X, upper_bound_ns=1.0, settings=fast_settings,
            precision_ns=0.25,
        )
        assert result.converged
        assert result.duration_ns >= 2.0

    def test_iterations_accumulated(self, single_qubit_cs, fast_settings):
        result = minimum_time_pulse(
            single_qubit_cs, X, upper_bound_ns=5.0, settings=fast_settings,
            precision_ns=0.25,
        )
        assert result.total_iterations > 0
        assert result.grape_calls >= 2
        assert len(result.probes) == result.grape_calls

    def test_invalid_upper_bound(self, single_qubit_cs):
        with pytest.raises(GrapeError):
            minimum_time_pulse(single_qubit_cs, X, upper_bound_ns=0.0)

    def test_result_fidelity_meets_target(self, single_qubit_cs, fast_settings):
        result = minimum_time_pulse(
            single_qubit_cs, H, upper_bound_ns=3.0, settings=fast_settings,
            precision_ns=0.25,
        )
        assert result.fidelity >= fast_settings.target_fidelity


class TestParallelFeasibilityProbes:
    """The feasibility doublings parallelize; the binary search stays serial."""

    def test_feasible_first_probe_identical_to_sequential(
        self, single_qubit_cs, fast_settings
    ):
        """When the initial bound converges no doubling happens at all, so
        the speculative path must be bit-identical to the sequential one."""
        sequential = minimum_time_pulse(
            single_qubit_cs, X, upper_bound_ns=5.0, settings=fast_settings,
            precision_ns=0.25,
        )
        speculative = minimum_time_pulse(
            single_qubit_cs, X, upper_bound_ns=5.0, settings=fast_settings,
            precision_ns=0.25, probe_executor="thread",
        )
        assert speculative.duration_ns == sequential.duration_ns
        assert speculative.grape_calls == sequential.grape_calls
        assert speculative.total_iterations == sequential.total_iterations

    def test_infeasible_bound_converges_through_parallel_doublings(
        self, single_qubit_cs, fast_settings
    ):
        result = minimum_time_pulse(
            single_qubit_cs, X, upper_bound_ns=1.0, settings=fast_settings,
            precision_ns=0.25, probe_executor="thread",
        )
        assert result.converged
        assert result.duration_ns >= 2.0
        # The speculative phase probes every doubling: 1.0 and 0.5 ns fail
        # sequentially, then 2/4/8 ns all run.
        probe_durations = [round(d, 2) for d, _, _ in result.probes[:5]]
        assert probe_durations == [1.0, 0.5, 2.0, 4.0, 8.0]
        assert result.total_iterations > 0

    def test_serial_executor_spec_also_speculates(
        self, single_qubit_cs, fast_settings
    ):
        """Any executor spec opts into speculation; only None stays lazy."""
        result = minimum_time_pulse(
            single_qubit_cs, X, upper_bound_ns=1.0, settings=fast_settings,
            precision_ns=0.25, probe_executor="serial",
        )
        assert result.converged
        assert [round(d, 2) for d, _, _ in result.probes[:5]] == [
            1.0, 0.5, 2.0, 4.0, 8.0,
        ]

    def test_flexible_precompile_accepts_probe_executor(self):
        """End to end: the probe executor threads through the tuning handler."""
        from repro.circuits.circuit import QuantumCircuit
        from repro.circuits.parameters import Parameter
        from repro.core import FlexiblePartialCompiler

        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.rz(Parameter("t0"), 0)
        circuit.cx(0, 1)
        compiler = FlexiblePartialCompiler.precompile(
            circuit,
            settings=GrapeSettings(dt_ns=0.5, target_fidelity=0.9),
            hyperparameters=GrapeHyperparameters(0.05, 0.002, max_iterations=60),
            max_block_width=2,
            tuning_samples=1,
            probe_executor="thread",
        )
        pulse = compiler.compile([0.4])
        assert pulse.program is not None
