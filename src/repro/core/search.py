"""Derivative-free hyperparameter search strategies beyond grid search.

Paper section 7.2 motivates hyperparameter optimization with the
derivative-free literature: "tuning hyperparameters with methods such as
bayesian optimization and radial basis functions can significantly improve
performance for stochastic and expensive objectives".  The default tuner
(:func:`repro.core.hyperopt.tune_hyperparameters`) is an exhaustive grid;
this module adds three budget-aware alternatives over the same
(learning rate, decay rate) space:

* :func:`random_search` — log-uniform sampling, the standard strong
  baseline for low-dimensional hyperparameter spaces.
* :func:`successive_halving` — bandit-style racing: many configurations at
  a small GRAPE iteration budget, survivors promoted to larger budgets.
* :func:`rbf_search` — a radial-basis-function surrogate fitted to the
  evaluated configurations proposes each next candidate (the
  "radial basis functions" method the paper cites).

All three return the same :class:`~repro.core.hyperopt.TuningResult` shape
as the grid tuner, so the ``"flexible-partial"`` strategy
(:class:`~repro.core.flexible._FlexiblePartialCompiler`) can swap them in via ``tuning_strategy``, and like it they run every trial
through an optional ``memo`` (a :class:`~repro.pulse.grape.memo.GrapeRunMemo`).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from repro.core.hyperopt import HyperparameterTrial, TuningResult
from repro.errors import CompilationError
from repro.pulse.grape.engine import GrapeHyperparameters, GrapeSettings, optimize_pulse
from repro.pulse.hamiltonian import ControlSet

__all__ = [
    "SearchSpace",
    "random_search",
    "rbf_search",
    "successive_halving",
    "tune_with_strategy",
]


@dataclass(frozen=True)
class SearchSpace:
    """Box bounds of the (learning rate, decay rate) search space.

    Learning rates are sampled log-uniformly (their effect spans orders of
    magnitude — paper Figure 4's x-axis is logarithmic); decay rates are
    sampled uniformly, including exactly zero with probability
    ``zero_decay_probability``.
    """

    learning_rate_bounds: tuple = (1e-3, 0.3)
    decay_rate_bounds: tuple = (0.0, 0.02)
    zero_decay_probability: float = 0.25
    optimizer: str = "adam"

    def __post_init__(self):
        lo, hi = self.learning_rate_bounds
        if not (0 < lo < hi):
            raise CompilationError(f"bad learning-rate bounds ({lo}, {hi})")
        dlo, dhi = self.decay_rate_bounds
        if not (0 <= dlo <= dhi):
            raise CompilationError(f"bad decay-rate bounds ({dlo}, {dhi})")

    def sample(self, rng: np.random.Generator) -> tuple:
        lo, hi = self.learning_rate_bounds
        lr = float(np.exp(rng.uniform(math.log(lo), math.log(hi))))
        if rng.uniform() < self.zero_decay_probability:
            decay = 0.0
        else:
            decay = float(rng.uniform(*self.decay_rate_bounds))
        return lr, decay


class _Objective:
    """Mean GRAPE performance of one (lr, decay) over the sample targets."""

    def __init__(
        self,
        control_set: ControlSet,
        targets: list,
        num_steps: int,
        settings: GrapeSettings,
        optimizer: str = "adam",
        memo=None,
    ):
        if not targets:
            raise CompilationError("need at least one sample target to tune")
        self.control_set = control_set
        self.targets = targets
        self.num_steps = num_steps
        self.settings = settings
        self.optimizer = optimizer
        self.memo = memo
        self.total_iterations = 0
        self.memo_hits = 0

    def evaluate(self, lr: float, decay: float, budget: int) -> HyperparameterTrial:
        hyper = GrapeHyperparameters(
            lr, decay, max_iterations=budget, optimizer=self.optimizer
        )
        iterations, fidelities, converged = [], [], True
        for target in self.targets:
            result = optimize_pulse(
                self.control_set,
                target,
                self.num_steps,
                hyper,
                self.settings,
                memo=self.memo,
            )
            self.total_iterations += result.iterations
            self.memo_hits += result.memo_hit
            iterations.append(result.iterations)
            fidelities.append(result.fidelity)
            converged = converged and result.converged
        return HyperparameterTrial(
            learning_rate=lr,
            decay_rate=decay,
            mean_iterations=float(np.mean(iterations)),
            mean_final_fidelity=float(np.mean(fidelities)),
            all_converged=converged,
        )


def _finish(objective: _Objective, trials: list, budget: int, start: float) -> TuningResult:
    if not trials:
        raise CompilationError("hyperparameter search produced no trials")
    best_trial = min(trials, key=lambda t: t.score)
    best = GrapeHyperparameters(
        best_trial.learning_rate,
        best_trial.decay_rate,
        max_iterations=budget,
        optimizer=objective.optimizer,
    )
    return TuningResult(
        best=best,
        trials=trials,
        wall_time_s=time.perf_counter() - start,
        total_iterations=objective.total_iterations,
        memo_hits=objective.memo_hits,
    )


def _resolve_budget(iteration_budget: int | None) -> int:
    if iteration_budget is not None:
        return iteration_budget
    from repro.config import get_preset

    return get_preset().max_iterations


def random_search(
    control_set: ControlSet,
    targets: list,
    num_steps: int,
    settings: GrapeSettings | None = None,
    space: SearchSpace | None = None,
    num_trials: int = 12,
    iteration_budget: int | None = None,
    seed: int = 0,
    memo=None,
) -> TuningResult:
    """Log-uniform random search over (learning rate, decay rate)."""
    settings = settings or GrapeSettings()
    space = space or SearchSpace()
    budget = _resolve_budget(iteration_budget)
    objective = _Objective(
        control_set, targets, num_steps, settings, space.optimizer, memo
    )
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    trials = [objective.evaluate(*space.sample(rng), budget) for _ in range(num_trials)]
    return _finish(objective, trials, budget, start)


def successive_halving(
    control_set: ControlSet,
    targets: list,
    num_steps: int,
    settings: GrapeSettings | None = None,
    space: SearchSpace | None = None,
    num_configs: int = 12,
    eta: int = 3,
    iteration_budget: int | None = None,
    seed: int = 0,
    memo=None,
) -> TuningResult:
    """Bandit-style racing over sampled configurations.

    Round ``r`` evaluates the surviving configurations with a GRAPE budget
    of ``max_budget / eta^(rounds-1-r)`` iterations and keeps the best
    ``1/eta`` fraction.  Poor learning rates are discarded after a handful
    of gradient steps instead of a full run, which is what makes the
    precompute phase cheap for wide circuits with many single-θ blocks.
    """
    if eta < 2:
        raise CompilationError("eta must be at least 2")
    settings = settings or GrapeSettings()
    space = space or SearchSpace()
    max_budget = _resolve_budget(iteration_budget)
    objective = _Objective(
        control_set, targets, num_steps, settings, space.optimizer, memo
    )
    rng = np.random.default_rng(seed)
    start = time.perf_counter()

    num_rounds = max(1, int(math.floor(math.log(num_configs, eta))) + 1)
    configs = [space.sample(rng) for _ in range(num_configs)]
    all_trials: list = []
    survivors = configs
    for round_index in range(num_rounds):
        budget = max(1, int(max_budget / eta ** (num_rounds - 1 - round_index)))
        scored = [objective.evaluate(lr, decay, budget) for lr, decay in survivors]
        all_trials.extend(scored)
        if round_index == num_rounds - 1 or len(survivors) <= 1:
            break
        keep = max(1, len(survivors) // eta)
        ranked = sorted(zip(scored, survivors), key=lambda pair: pair[0].score)
        survivors = [config for _, config in ranked[:keep]]

    return _finish(objective, all_trials, max_budget, start)


def rbf_search(
    control_set: ControlSet,
    targets: list,
    num_steps: int,
    settings: GrapeSettings | None = None,
    space: SearchSpace | None = None,
    num_initial: int = 5,
    num_iterations: int = 7,
    iteration_budget: int | None = None,
    seed: int = 0,
    memo=None,
) -> TuningResult:
    """Radial-basis-function surrogate search (paper §7.2's cited method).

    A thin-plate-spline RBF is fitted to the scores of all evaluated
    configurations (in ``(log lr, scaled decay)`` coordinates); each step
    evaluates the candidate minimizing the surrogate over a dense random
    candidate pool, with an exploration bonus for distance to previously
    evaluated points.
    """
    from scipy.interpolate import RBFInterpolator

    settings = settings or GrapeSettings()
    space = space or SearchSpace()
    budget = _resolve_budget(iteration_budget)
    objective = _Objective(
        control_set, targets, num_steps, settings, space.optimizer, memo
    )
    rng = np.random.default_rng(seed)
    start = time.perf_counter()

    decay_hi = max(space.decay_rate_bounds[1], 1e-9)

    def to_coords(lr: float, decay: float) -> np.ndarray:
        return np.array([math.log(lr), decay / decay_hi])

    trials: list = []
    coords: list = []
    for _ in range(num_initial):
        lr, decay = space.sample(rng)
        trials.append(objective.evaluate(lr, decay, budget))
        coords.append(to_coords(lr, decay))

    for _ in range(num_iterations):
        points = np.array(coords)
        # Normalize scores so the failure penalty does not flatten the
        # surrogate: rank-transform to [0, 1].
        order = np.argsort(np.argsort([t.score for t in trials]))
        values = order / max(len(trials) - 1, 1)
        try:
            surrogate = RBFInterpolator(
                points, values, kernel="thin_plate_spline", smoothing=1e-6
            )
        except (np.linalg.LinAlgError, ValueError):
            # Too few / degenerate points for the thin-plate polynomial
            # tail: fall back to pure exploration for this proposal.
            surrogate = None
        candidates = [space.sample(rng) for _ in range(256)]
        cand_coords = np.array([to_coords(lr, d) for lr, d in candidates])
        if surrogate is not None:
            predicted = surrogate(cand_coords)
        else:
            predicted = rng.uniform(size=len(candidates))
        # Exploration bonus: prefer candidates away from evaluated points.
        dists = np.min(
            np.linalg.norm(cand_coords[:, None, :] - points[None, :, :], axis=2),
            axis=1,
        )
        acquisition = predicted - 0.3 * dists
        lr, decay = candidates[int(np.argmin(acquisition))]
        trials.append(objective.evaluate(lr, decay, budget))
        coords.append(to_coords(lr, decay))

    return _finish(objective, trials, budget, start)


#: Tuner registry used by ``_FlexiblePartialCompiler``.
STRATEGIES = {
    "random": random_search,
    "halving": successive_halving,
    "rbf": rbf_search,
}


def tune_with_strategy(
    strategy: str,
    control_set: ControlSet,
    targets: list,
    num_steps: int,
    settings: GrapeSettings | None = None,
    **kwargs,
) -> TuningResult:
    """Dispatch to a named search strategy ("random", "halving", "rbf").

    The grid strategy lives in :func:`repro.core.hyperopt.tune_hyperparameters`
    and is dispatched here under the name "grid" for convenience.
    """
    if strategy == "grid":
        from repro.core.hyperopt import tune_hyperparameters

        allowed = {"learning_rates", "decay_rates", "iteration_budget", "memo"}
        grid_kwargs = {k: v for k, v in kwargs.items() if k in allowed}
        return tune_hyperparameters(
            control_set, targets, num_steps, settings=settings, **grid_kwargs
        )
    try:
        fn = STRATEGIES[strategy]
    except KeyError:
        raise CompilationError(
            f"unknown tuning strategy {strategy!r}; "
            f"expected one of {sorted(STRATEGIES) + ['grid']}"
        ) from None
    return fn(control_set, targets, num_steps, settings=settings, **kwargs)
