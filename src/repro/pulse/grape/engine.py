"""The GRAPE optimization loop."""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.config import get_preset
from repro.errors import GrapeError
from repro.pulse.grape.adam import AdamOptimizer
from repro.pulse.grape.controls import envelope_window, initial_controls
from repro.pulse.grape.cost import GrapeCost, RegularizationSettings
from repro.pulse.hamiltonian import ControlSet
from repro.pulse.schedule import PulseSchedule


@dataclass(frozen=True)
class GrapeHyperparameters:
    """The optimizer knobs flexible partial compilation pre-tunes.

    ``learning_rate`` and ``decay_rate`` are exactly the hyperparameters of
    paper section 7.2 ("learning rate and learning rate decay").
    ``optimizer`` selects the update rule — the paper names "ADAM or
    L-BFGS-B"; both are implemented.
    """

    learning_rate: float = 0.03
    decay_rate: float = 0.002
    max_iterations: int | None = None  # None -> preset default
    optimizer: str = "adam"

    def __post_init__(self):
        if self.optimizer not in ("adam", "lbfgs"):
            raise GrapeError(
                f"unknown optimizer {self.optimizer!r}; use 'adam' or 'lbfgs'"
            )
        if self.max_iterations is not None and self.max_iterations < 1:
            raise GrapeError(
                f"max_iterations must be >= 1, got {self.max_iterations}"
            )

    def resolved_iterations(self) -> int:
        """Iteration budget, falling back to the active preset."""
        if self.max_iterations is not None:
            return self.max_iterations
        return get_preset().max_iterations

    def with_iterations(self, max_iterations: int) -> "GrapeHyperparameters":
        """Copy with a different iteration budget."""
        return replace(self, max_iterations=max_iterations)

    def make_optimizer(self):
        """Instantiate the configured control-field optimizer."""
        if self.optimizer == "lbfgs":
            from repro.pulse.grape.lbfgs import LBFGSOptimizer

            return LBFGSOptimizer(self.learning_rate, self.decay_rate)
        return AdamOptimizer(self.learning_rate, self.decay_rate)


@dataclass(frozen=True)
class GrapeSettings:
    """Physical/numerical settings of a GRAPE run (not tuned per circuit)."""

    dt_ns: float | None = None  # None -> preset default
    target_fidelity: float | None = None  # None -> preset default
    regularization: RegularizationSettings = field(default_factory=RegularizationSettings)
    seed: int = 0
    plateau_patience: int = 60
    plateau_tolerance: float = 1e-6

    def resolved_dt(self) -> float:
        """Slice width (ns), falling back to the active preset."""
        return self.dt_ns if self.dt_ns is not None else get_preset().dt_ns

    def resolved_target(self) -> float:
        """Target fidelity, falling back to the active preset."""
        if self.target_fidelity is not None:
            return self.target_fidelity
        return get_preset().target_fidelity


@dataclass
class GrapeResult:
    """Outcome of one GRAPE optimization."""

    schedule: PulseSchedule
    fidelity: float
    converged: bool
    iterations: int
    wall_time_s: float
    fidelity_history: list
    target_fidelity: float
    #: True when a :class:`~repro.pulse.grape.memo.GrapeRunMemo` replayed
    #: this run instead of running it.
    memo_hit: bool = False
    #: True when ``give_up`` stopped the run because it could no longer
    #: reach the target in its remaining budget.
    abandoned: bool = False

    @property
    def duration_ns(self) -> float:
        """Total pulse duration of the optimized schedule (ns)."""
        return self.schedule.duration_ns


def optimize_pulse(
    control_set: ControlSet,
    target: np.ndarray,
    num_steps: int,
    hyperparameters: GrapeHyperparameters | None = None,
    settings: GrapeSettings | None = None,
    initial: np.ndarray | None = None,
    memo=None,
    give_up: bool = False,
) -> GrapeResult:
    """Run GRAPE for a fixed pulse length of ``num_steps`` slices.

    Parameters
    ----------
    control_set:
        Drift + control operators of the block (see
        :func:`repro.pulse.hamiltonian.build_control_set`).
    target:
        The ``2^n x 2^n`` target unitary of the block.
    num_steps:
        Number of piecewise-constant slices (total time = steps · dt).
    hyperparameters:
        ADAM learning rate / decay / iteration budget.
    settings:
        Time step, fidelity target, regularization, seed.
    initial:
        Warm-start control array ``(n_controls, num_steps)``; random smooth
        fields when omitted.  Non-finite values or amplitudes beyond the
        device bounds raise :class:`ValueError` — a wrongly-scaled seed
        silently clipped into garbage is worse than a loud failure.
    memo:
        Optional :class:`~repro.pulse.grape.memo.GrapeRunMemo`.  A run with
        exactly these inputs that the memo holds is replayed from it
        (``memo_hit`` set), bit-identical to running it again.
    give_up:
        Stop early (``abandoned`` set) once the run's recent progress
        cannot reach the target in the budget it has left.  With ``w =
        plateau_patience // 2`` and ``best_k`` the best fidelity of
        iterations ``2..k``, iteration ``k > w + 1`` gives up when
        ``best_k + 2 · (best_k − best_{k−w}) / w · (max_iterations − k)``
        is below the target: even at twice its best-fidelity gain rate of
        the last ``w`` iterations, held for every iteration left, the run
        would miss.  Iteration 1 only scores the initial controls: the
        optimizer's first step moves every sample by a full learning-rate
        step, and a warm start at 0.97 was seen to fall to 0.01 and climb
        back to converge at iteration 42, a climb that a best including
        the seed reads as no progress.  Only for a run whose failing
        result the caller discards (a minimum-time search's descent
        probe): the stop then changes nothing but time.
    """
    if memo is not None:
        return memo.run(
            control_set,
            target,
            num_steps,
            hyperparameters,
            settings,
            initial,
            give_up=give_up,
        )
    if num_steps < 1:
        raise GrapeError("num_steps must be >= 1")
    hyper = hyperparameters or GrapeHyperparameters()
    settings = settings or GrapeSettings()
    dt = settings.resolved_dt()
    target_fidelity = settings.resolved_target()
    max_iterations = hyper.resolved_iterations()

    cost_fn = GrapeCost(control_set, target, dt, settings.regularization)
    bounds = control_set.max_amplitudes
    # Per-channel bound columns for the optimizer's step scale and the
    # amplitude clip, built once per run instead of once per iteration.
    upper = bounds[:, None]
    lower = -upper

    if initial is None:
        controls = initial_controls(
            control_set.num_controls, num_steps, bounds, seed=settings.seed
        )
    else:
        controls = np.array(initial, dtype=float)
        if controls.shape != (control_set.num_controls, num_steps):
            raise GrapeError(
                f"initial controls shape {controls.shape} != "
                f"({control_set.num_controls}, {num_steps})"
            )
        if not np.all(np.isfinite(controls)):
            raise ValueError(
                "initial controls contain non-finite values (NaN or inf)"
            )
        peak = np.max(np.abs(controls), axis=1)
        limits = np.asarray(bounds, dtype=float)
        overdriven = peak > limits * (1.0 + 1e-6)
        if np.any(overdriven):
            worst = int(np.argmax(peak / limits))
            raise ValueError(
                "initial controls exceed channel amplitude bounds "
                f"(channel {worst}: |amp| {peak[worst]:.6g} > bound "
                f"{limits[worst]:.6g} rad/ns) — wrongly scaled warm start?"
            )
    window = (
        envelope_window(num_steps)
        if settings.regularization.enforce_envelope
        else None
    )
    if window is not None:
        controls = controls * window

    optimizer = hyper.make_optimizer()
    history: list[float] = []
    best_controls = controls
    best_fidelity = -1.0
    start = time.perf_counter()
    iterations_run = 0
    converged = False
    abandoned = False
    stall = 0
    window_len = settings.plateau_patience // 2
    iterate_best = -1.0  # best fidelity of iterations 2..k, for give_up
    iterate_bests: list[float] = []

    for iteration in range(max_iterations):
        _, gradient, fidelity = cost_fn.cost_and_gradient(controls)
        iterations_run = iteration + 1
        history.append(fidelity)
        if fidelity > best_fidelity:
            if fidelity < best_fidelity + settings.plateau_tolerance:
                stall += 1
            else:
                stall = 0
            best_fidelity = fidelity
            best_controls = controls.copy()
        else:
            stall += 1
        if fidelity >= target_fidelity:
            converged = True
            break
        if stall >= settings.plateau_patience:
            break
        if give_up and window_len and iterations_run > 1:
            iterate_best = max(iterate_best, fidelity)
            iterate_bests.append(iterate_best)
            left = max_iterations - iterations_run
            if len(iterate_bests) > window_len and left > 0:
                rate = (iterate_best - iterate_bests[-1 - window_len]) / window_len
                if iterate_best + 2.0 * rate * left < target_fidelity:
                    abandoned = True
                    break
        controls = optimizer.step(controls, gradient, scale=upper)
        controls = controls.clip(lower, upper)
        if window is not None:
            controls = controls * window

    elapsed = time.perf_counter() - start
    schedule = PulseSchedule(
        qubits=control_set.qubits,
        dt_ns=dt,
        controls=best_controls,
        channel_names=tuple(ch.name for ch in control_set.channels),
        source="grape",
    )
    return GrapeResult(
        schedule=schedule,
        fidelity=best_fidelity,
        converged=converged,
        iterations=iterations_run,
        wall_time_s=elapsed,
        fidelity_history=history,
        target_fidelity=target_fidelity,
        abandoned=abandoned,
    )
