"""Hyperparameter optimization for GRAPE's ADAM optimizer (paper §7.2).

Flexible partial compilation rests on one empirical observation (paper
Figure 4): for a single-angle parametrized subcircuit, the best-performing
(learning rate, decay rate) pair is *robust to the value of the angle*.  So
the pair can be tuned once, offline, on sampled angles, and reused at every
variational iteration.

The tuner is a derivative-free grid search scored by iterations-to-converge,
averaged over sampled parametrizations.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.errors import CompilationError
from repro.pulse.grape.engine import GrapeHyperparameters, GrapeSettings, optimize_pulse
from repro.pulse.hamiltonian import ControlSet
from repro.sim.unitary import circuit_unitary

#: Default search grids: log-spaced learning rates, a few decay settings.
DEFAULT_LEARNING_RATES = (0.003, 0.01, 0.03, 0.1)
DEFAULT_DECAY_RATES = (0.0, 0.002, 0.01)


@dataclass
class HyperparameterTrial:
    """One (lr, decay) evaluation, averaged over sample angles."""

    learning_rate: float
    decay_rate: float
    mean_iterations: float
    mean_final_fidelity: float
    all_converged: bool

    @property
    def score(self) -> float:
        """Lower is better: iterations, with a large penalty for failure."""
        penalty = 0.0 if self.all_converged else 1e6 * (1.0 - self.mean_final_fidelity)
        return self.mean_iterations + penalty


@dataclass
class TuningResult:
    """Outcome of hyperparameter tuning for one parametrized block."""

    best: GrapeHyperparameters
    trials: list = field(default_factory=list)
    wall_time_s: float = 0.0
    total_iterations: int = 0
    memo_hits: int = 0  # trial runs a GrapeRunMemo replayed

    @property
    def best_trial(self) -> HyperparameterTrial:
        """The lowest-score trial (fewest iterations among converging)."""
        return min(self.trials, key=lambda t: t.score)


def sample_targets(
    subcircuit: QuantumCircuit, num_samples: int, seed: int = 7
) -> list:
    """Target unitaries of ``subcircuit`` at random parametrizations."""
    params = subcircuit.parameters
    rng = np.random.default_rng(seed)
    targets = []
    for _ in range(num_samples):
        values = {p: float(rng.uniform(-np.pi, np.pi)) for p in params}
        targets.append(circuit_unitary(subcircuit.bind_parameters(values)))
    return targets


def tune_hyperparameters(
    control_set: ControlSet,
    targets: list,
    num_steps: int,
    settings: GrapeSettings | None = None,
    learning_rates: tuple = DEFAULT_LEARNING_RATES,
    decay_rates: tuple = DEFAULT_DECAY_RATES,
    iteration_budget: int | None = None,
    memo=None,
) -> TuningResult:
    """Grid-search (learning rate, decay) minimizing iterations-to-converge.

    ``targets`` are the block's unitaries at sampled angles; the winning
    configuration must converge on all of them (Figure 4 robustness).
    Every trial run goes through ``memo`` (a
    :class:`~repro.pulse.grape.memo.GrapeRunMemo`) when one is given.
    """
    if not targets:
        raise CompilationError("need at least one sample target to tune")
    settings = settings or GrapeSettings()
    from repro.config import get_preset

    budget = iteration_budget or get_preset().max_iterations
    start = time.perf_counter()
    trials: list[HyperparameterTrial] = []
    total_iterations = 0
    memo_hits = 0
    for lr in learning_rates:
        for decay in decay_rates:
            hyper = GrapeHyperparameters(lr, decay, max_iterations=budget)
            iters, fids, converged = [], [], True
            for target in targets:
                result = optimize_pulse(
                    control_set, target, num_steps, hyper, settings, memo=memo
                )
                total_iterations += result.iterations
                memo_hits += result.memo_hit
                iters.append(result.iterations)
                fids.append(result.fidelity)
                converged = converged and result.converged
            trials.append(
                HyperparameterTrial(
                    learning_rate=lr,
                    decay_rate=decay,
                    mean_iterations=float(np.mean(iters)),
                    mean_final_fidelity=float(np.mean(fids)),
                    all_converged=converged,
                )
            )
    best_trial = min(trials, key=lambda t: t.score)
    best = GrapeHyperparameters(
        best_trial.learning_rate, best_trial.decay_rate, max_iterations=budget
    )
    return TuningResult(
        best=best,
        trials=trials,
        wall_time_s=time.perf_counter() - start,
        total_iterations=total_iterations,
        memo_hits=memo_hits,
    )


def learning_rate_sweep(
    control_set: ControlSet,
    targets: list,
    num_steps: int,
    learning_rates: tuple,
    iterations: int,
    settings: GrapeSettings | None = None,
) -> np.ndarray:
    """GRAPE error after ``iterations`` steps vs learning rate, per target.

    Returns an array of shape ``(len(targets), len(learning_rates))`` of
    final infidelities — the data behind the paper's Figure 4 (the rows,
    one per angle permutation, share the same low-error learning-rate
    band).
    """
    settings = settings or GrapeSettings()
    errors = np.zeros((len(targets), len(learning_rates)))
    for i, target in enumerate(targets):
        for j, lr in enumerate(learning_rates):
            hyper = GrapeHyperparameters(lr, 0.0, max_iterations=iterations)
            # Disable early convergence exit so every run uses the same
            # budget: achieved via a fidelity target of 1.0.
            sweep_settings = GrapeSettings(
                dt_ns=settings.resolved_dt(),
                target_fidelity=1.0,
                regularization=settings.regularization,
                seed=settings.seed,
                plateau_patience=10**9,
            )
            result = optimize_pulse(
                control_set, target, num_steps, hyper, sweep_settings
            )
            errors[i, j] = 1.0 - result.fidelity
    return errors
