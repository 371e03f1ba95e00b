"""Binary search for the minimum pulse time (paper section 5.3).

Rather than weighting a time-penalty term against fidelity — which the paper
found brittle — the pulse length itself is searched: find the shortest
``total_time`` at which GRAPE still reaches the target fidelity, to a
precision of 0.3 ns.  Each probe warm-starts from the best feasible pulse
found so far (resampled to the new step count), which substantially reduces
the iterations per probe.

The search is sequential by design: each probe's outcome decides the next
interval, and the feasibility-doubling probes stop at the first success.

A search that opens at a warm-start seed's duration descends from there
one ``dt`` at a time, and a failing descent probe's pulse is discarded.
So each descent probe gives up (``optimize_pulse(..., give_up=True)``)
once its recent progress, doubled and held for its whole remaining budget,
would still miss the target; the search's pulses, durations and decisions
are those of the probe running to its end, in fewer iterations.  No other
probe gives up: a failing trial or doubling probe's pulse seeds the next
probe, and binary probes from a cold search can plateau for tens of
iterations and then escape, which no rate rule foresees.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.errors import GrapeError
from repro.perf import get_perf_registry
from repro.pulse.grape.engine import (
    GrapeHyperparameters,
    GrapeResult,
    GrapeSettings,
    optimize_pulse,
)
from repro.pulse.hamiltonian import ControlSet
from repro.pulse.schedule import PulseSchedule


@dataclass
class MinimumTimeResult:
    """Outcome of the minimum-time search.

    ``total_iterations`` counts every ADAM step across every probe — the
    hardware-independent compilation-latency measure used in the Figure 7
    reproduction; ``memo_hits`` counts the probes a
    :class:`~repro.pulse.grape.memo.GrapeRunMemo` replayed;
    ``abandoned`` counts the descent probes that gave up early and
    ``abandoned_iterations`` the iterations they ran (included in
    ``total_iterations``).
    """

    schedule: PulseSchedule
    fidelity: float
    duration_ns: float
    converged: bool
    total_iterations: int
    grape_calls: int
    wall_time_s: float
    probes: list = field(default_factory=list)  # (duration_ns, fidelity, converged)
    memo_hits: int = 0
    abandoned: int = 0
    abandoned_iterations: int = 0

    @property
    def best_result_duration(self) -> float:
        return self.duration_ns


def minimum_time_pulse(
    control_set: ControlSet,
    target: np.ndarray,
    upper_bound_ns: float,
    hyperparameters: GrapeHyperparameters | None = None,
    settings: GrapeSettings | None = None,
    precision_ns: float | None = None,
    lower_bound_ns: float = 0.0,
    max_doublings: int = 3,
    warm_start: PulseSchedule | None = None,
    memo=None,
) -> MinimumTimeResult:
    """Find the shortest pulse that realizes ``target`` at the set fidelity.

    Parameters
    ----------
    upper_bound_ns:
        Initial feasible-time guess — typically the gate-based duration of
        the block, which GRAPE should beat.  Doubled up to ``max_doublings``
        times if infeasible.
    precision_ns:
        Binary-search stopping width (preset default: paper uses 0.3 ns).
    warm_start:
        Optional seed schedule (a cached neighbor's pulse or an analytic
        KAK seed).  Probes that have no in-search best yet start from it
        (resampled to the probe's step count) instead of random fields, and
        the seed's own duration is tried *first* when it undercuts the
        upper bound — a near-miss neighbor's minimum time is an excellent
        guess for this block's, letting the search open already close to
        the answer.  When that opening probe converges the search descends
        one ``dt`` at a time; a descent probe gives up once even twice its
        recent best-fidelity gain rate, held for its remaining budget,
        cannot reach the target (see ``give_up`` of
        :func:`~repro.pulse.grape.engine.optimize_pulse`), since the first
        failing descent's pulse is discarded and only its failure is used.
    memo:
        Optional :class:`~repro.pulse.grape.memo.GrapeRunMemo` every probe
        goes through (see :func:`~repro.pulse.grape.engine.optimize_pulse`).
    """
    settings = settings or GrapeSettings()
    hyper = hyperparameters or GrapeHyperparameters()
    dt = settings.resolved_dt()
    if precision_ns is None:
        from repro.config import get_preset

        precision_ns = get_preset().time_search_precision_ns
    if upper_bound_ns <= 0:
        raise GrapeError(f"upper bound must be positive, got {upper_bound_ns}")

    start = time.perf_counter()
    total_iterations = 0
    grape_calls = 0
    memo_hits = 0
    abandoned = 0
    abandoned_iterations = 0
    probes: list[tuple] = []

    def run(
        duration_ns: float, warm: PulseSchedule | None, give_up: bool = False
    ) -> GrapeResult:
        nonlocal total_iterations, grape_calls, memo_hits
        nonlocal abandoned, abandoned_iterations
        steps = max(1, int(round(duration_ns / dt)))
        initial = warm.resampled(steps).controls if warm is not None else None
        result = optimize_pulse(
            control_set,
            target,
            steps,
            hyper,
            settings,
            initial=initial,
            memo=memo,
            give_up=give_up,
        )
        total_iterations += result.iterations
        grape_calls += 1
        memo_hits += result.memo_hit
        if result.abandoned:
            abandoned += 1
            abandoned_iterations += result.iterations
            perf = get_perf_registry()
            perf.count("grape.time_search.abandoned")
            perf.count("grape.time_search.abandoned_iterations", result.iterations)
        probes.append((steps * dt, result.fidelity, result.converged))
        return result

    # Establish a feasible duration.  Over-long pulses are often *harder*
    # to converge than moderately short ones (far more parameters for the
    # same descent budget), so after a failed first probe the search also
    # tries half the bound before resorting to doubling.
    trial_times = [upper_bound_ns, 0.5 * upper_bound_ns]
    seed_first = False
    if warm_start is not None:
        seed_duration = warm_start.duration_ns
        if 0.0 < seed_duration <= upper_bound_ns * (1.0 + 1e-9):
            # Try the seed's own duration first — for a near-miss neighbor
            # it is the best minimum-time guess available.  Dedupe trials
            # that snap to the same step count.
            seed_steps = max(1, int(round(seed_duration / dt)))
            trial_times = [seed_duration] + [
                t for t in trial_times if max(1, int(round(t / dt))) != seed_steps
            ]
            seed_first = True
    doubling_times = [upper_bound_ns * 2.0**k for k in range(1, max_doublings + 1)]
    best: GrapeResult | None = None
    for trial in trial_times:
        result = run(trial, best.schedule if best else warm_start)
        if result.converged:
            best = result
            break
        if best is None or result.fidelity > best.fidelity:
            best = result

    if not best.converged:
        for trial in doubling_times:
            result = run(trial, best.schedule)
            if result.converged:
                best = result
                break
            if result.fidelity > best.fidelity:
                best = result

    if best is None or not best.converged:
        # Infeasible even after doubling; report the best attempt.
        return MinimumTimeResult(
            schedule=best.schedule,
            fidelity=best.fidelity,
            duration_ns=best.schedule.duration_ns,
            converged=False,
            total_iterations=total_iterations,
            grape_calls=grape_calls,
            wall_time_s=time.perf_counter() - start,
            probes=probes,
            memo_hits=memo_hits,
            abandoned=abandoned,
            abandoned_iterations=abandoned_iterations,
        )

    feasible = best
    low = max(lower_bound_ns, 0.0)
    high = feasible.schedule.duration_ns
    # Binary search down to the requested precision (at least one dt).
    min_width = max(precision_ns, dt)
    # When the search opened by converging at the *seed's* duration, that
    # duration is a near-miss neighbor's own minimum time — the strongest
    # prior available for this block's.  Binary-searching [0, D] from here
    # wastes full-budget failing probes in the infeasible region below the
    # answer, so descend one step at a time instead: converged probes are
    # cheap (each warm-starts from the last), and the first failure closes
    # the window to one step, ending the search with the same precision
    # guarantee.  A small budget bounds the descent for loose seeds; any
    # leftover window falls through to the ordinary binary search.  Only
    # a descent probe's failure is used, never its pulse, so it may give
    # up as soon as it cannot reach the target.
    descend_budget = 4 if seed_first and best.converged and grape_calls == 1 else 0
    while descend_budget and high - low > min_width:
        steps = max(1, int(round(high / dt))) - 1
        candidate = steps * dt
        if steps < 1 or candidate <= low:
            break
        descend_budget -= 1
        result = run(candidate, feasible.schedule, give_up=True)
        if result.converged:
            feasible = result
            high = candidate
        else:
            low = candidate
            break
    while high - low > min_width:
        mid = 0.5 * (low + high)
        steps = max(1, int(round(mid / dt)))
        mid_snapped = steps * dt
        if mid_snapped >= high or mid_snapped <= low:
            break
        result = run(mid_snapped, feasible.schedule)
        if result.converged:
            feasible = result
            high = mid_snapped
        else:
            low = mid_snapped

    return MinimumTimeResult(
        schedule=feasible.schedule,
        fidelity=feasible.fidelity,
        duration_ns=feasible.schedule.duration_ns,
        converged=True,
        total_iterations=total_iterations,
        grape_calls=grape_calls,
        wall_time_s=time.perf_counter() - start,
        probes=probes,
        memo_hits=memo_hits,
        abandoned=abandoned,
        abandoned_iterations=abandoned_iterations,
    )
