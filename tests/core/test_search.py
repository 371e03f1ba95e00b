"""Tests for the derivative-free hyperparameter search strategies."""

import numpy as np
import pytest

from repro.circuits import QuantumCircuit
from repro.circuits.parameters import Parameter
from repro.core.hyperopt import TuningResult, sample_targets
from repro.core.search import (
    SearchSpace,
    random_search,
    rbf_search,
    successive_halving,
    tune_with_strategy,
)
from repro.errors import CompilationError
from repro.pulse.device import GmonDevice
from repro.pulse.grape import GrapeSettings
from repro.pulse.hamiltonian import build_control_set
from repro.transpile import line_topology

SETTINGS = GrapeSettings(dt_ns=0.5, target_fidelity=0.95)


@pytest.fixture(scope="module")
def problem():
    """A cheap single-qubit single-θ tuning problem."""
    theta = Parameter("theta")
    circuit = QuantumCircuit(1)
    circuit.h(0)
    circuit.rz(theta, 0)
    circuit.h(0)
    control_set = build_control_set(GmonDevice(line_topology(1)), [0])
    targets = sample_targets(circuit, 2, seed=3)
    return control_set, targets


class TestSearchSpace:
    def test_sample_within_bounds(self):
        space = SearchSpace()
        rng = np.random.default_rng(0)
        for _ in range(50):
            lr, decay = space.sample(rng)
            lo, hi = space.learning_rate_bounds
            assert lo <= lr <= hi
            dlo, dhi = space.decay_rate_bounds
            assert dlo <= decay <= dhi

    def test_zero_decay_sampled(self):
        space = SearchSpace(zero_decay_probability=1.0)
        rng = np.random.default_rng(0)
        assert space.sample(rng)[1] == 0.0

    def test_log_uniform_learning_rate(self):
        """Median of log-uniform samples sits near the geometric mean."""
        space = SearchSpace(learning_rate_bounds=(1e-3, 1.0))
        rng = np.random.default_rng(1)
        lrs = [space.sample(rng)[0] for _ in range(400)]
        geometric_mean = np.sqrt(1e-3 * 1.0)
        assert geometric_mean / 3 < np.median(lrs) < geometric_mean * 3

    def test_invalid_lr_bounds_rejected(self):
        with pytest.raises(CompilationError):
            SearchSpace(learning_rate_bounds=(0.0, 0.1))
        with pytest.raises(CompilationError):
            SearchSpace(learning_rate_bounds=(0.3, 0.1))

    def test_invalid_decay_bounds_rejected(self):
        with pytest.raises(CompilationError):
            SearchSpace(decay_rate_bounds=(-0.1, 0.1))


class TestRandomSearch:
    def test_finds_converging_configuration(self, problem):
        control_set, targets = problem
        result = random_search(
            control_set, targets, 10, settings=SETTINGS,
            num_trials=8, iteration_budget=120, seed=0,
        )
        assert isinstance(result, TuningResult)
        assert result.best_trial.all_converged
        assert len(result.trials) == 8

    def test_reproducible(self, problem):
        control_set, targets = problem
        kwargs = dict(settings=SETTINGS, num_trials=4, iteration_budget=80, seed=5)
        a = random_search(control_set, targets, 10, **kwargs)
        b = random_search(control_set, targets, 10, **kwargs)
        assert [(t.learning_rate, t.decay_rate) for t in a.trials] == [
            (t.learning_rate, t.decay_rate) for t in b.trials
        ]

    def test_counts_iterations(self, problem):
        control_set, targets = problem
        result = random_search(
            control_set, targets, 10, settings=SETTINGS,
            num_trials=3, iteration_budget=60, seed=1,
        )
        assert result.total_iterations > 0

    def test_empty_targets_rejected(self, problem):
        control_set, _ = problem
        with pytest.raises(CompilationError):
            random_search(control_set, [], 10, settings=SETTINGS)


class TestSuccessiveHalving:
    def test_finds_converging_configuration(self, problem):
        control_set, targets = problem
        result = successive_halving(
            control_set, targets, 10, settings=SETTINGS,
            num_configs=9, eta=3, iteration_budget=120, seed=0,
        )
        assert result.best_trial.all_converged

    def test_cheaper_than_flat_random_at_same_coverage(self, problem):
        """Racing must spend fewer GRAPE iterations than evaluating every
        configuration at the full budget."""
        control_set, targets = problem
        halving = successive_halving(
            control_set, targets, 10, settings=SETTINGS,
            num_configs=9, eta=3, iteration_budget=120, seed=2,
        )
        flat = random_search(
            control_set, targets, 10, settings=SETTINGS,
            num_trials=9, iteration_budget=120, seed=2,
        )
        assert halving.total_iterations < flat.total_iterations

    def test_rejects_bad_eta(self, problem):
        control_set, targets = problem
        with pytest.raises(CompilationError):
            successive_halving(
                control_set, targets, 10, settings=SETTINGS, eta=1
            )

    def test_single_config_degenerates_gracefully(self, problem):
        control_set, targets = problem
        result = successive_halving(
            control_set, targets, 10, settings=SETTINGS,
            num_configs=1, iteration_budget=80, seed=0,
        )
        assert len(result.trials) >= 1


class TestRBFSearch:
    def test_finds_converging_configuration(self, problem):
        control_set, targets = problem
        result = rbf_search(
            control_set, targets, 10, settings=SETTINGS,
            num_initial=4, num_iterations=4, iteration_budget=120, seed=0,
        )
        assert result.best_trial.all_converged
        assert len(result.trials) == 8

    def test_surrogate_trials_cover_space(self, problem):
        """The proposals must not collapse onto a single point."""
        control_set, targets = problem
        result = rbf_search(
            control_set, targets, 10, settings=SETTINGS,
            num_initial=4, num_iterations=4, iteration_budget=80, seed=1,
        )
        lrs = {round(t.learning_rate, 6) for t in result.trials}
        assert len(lrs) >= 4


class TestDispatch:
    def test_grid_dispatch(self, problem):
        control_set, targets = problem
        result = tune_with_strategy(
            "grid", control_set, targets, 10, settings=SETTINGS,
            learning_rates=(0.03, 0.1), decay_rates=(0.0,),
            iteration_budget=80,
        )
        assert len(result.trials) == 2

    @pytest.mark.parametrize("name", ["random", "halving", "rbf"])
    def test_named_strategies_dispatch(self, problem, name):
        control_set, targets = problem
        kwargs = {"iteration_budget": 60, "seed": 0}
        if name == "random":
            kwargs["num_trials"] = 2
        elif name == "halving":
            kwargs["num_configs"] = 3
        else:
            kwargs.update(num_initial=3, num_iterations=1)
        result = tune_with_strategy(
            name, control_set, targets, 10, settings=SETTINGS, **kwargs
        )
        assert isinstance(result, TuningResult)

    def test_unknown_strategy_rejected(self, problem):
        control_set, targets = problem
        with pytest.raises(CompilationError):
            tune_with_strategy("bayes", control_set, targets, 10)


class TestFlexibleIntegration:
    def test_flexible_precompile_with_random_strategy(self):
        """End-to-end: the flexible strategy accepts a search strategy."""
        from repro.service import CompilationService, CompileRequest, ServiceConfig

        theta = Parameter("t0")
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.rz(theta, 1)
        circuit.cx(0, 1)
        with CompilationService(
            config=ServiceConfig(executor="serial"), settings=SETTINGS
        ) as service:
            compiled = service.compile(
                CompileRequest(
                    circuit,
                    [0.4],
                    strategy="flexible-partial",
                    max_block_width=2,
                    options={"tuning_samples": 1, "tuning_strategy": "random"},
                )
            ).compiled
        assert compiled.pulse_duration_ns > 0
