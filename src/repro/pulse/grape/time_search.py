"""Binary search for the minimum pulse time (paper section 5.3).

Rather than weighting a time-penalty term against fidelity — which the paper
found brittle — the pulse length itself is searched: find the shortest
``total_time`` at which GRAPE still reaches the target fidelity, to a
precision of 0.3 ns.  Each probe warm-starts from the best feasible pulse
found so far (resampled to the new step count), which substantially reduces
the iterations per probe.

The search has two phases with different parallelism structure.  The
*binary search* is sequential by design: each probe's outcome decides the
next interval.  The *feasibility-doubling* probes are not — once the
initial bound (and its half) fail, the candidate doubled durations are
independent GRAPE runs, so passing ``probe_executor`` dispatches them
speculatively in parallel and keeps the shortest converged one.  The
speculative path costs extra GRAPE iterations (every doubling runs instead
of stopping at the first success) in exchange for wall-clock latency — the
right trade inside flexible partial compilation's precompute phase, where
hard blocks otherwise serialize three doublings back to back.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro.errors import GrapeError
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
    :class:`~repro.pulse.grape.memo.GrapeRunMemo` replayed.
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

    @property
    def best_result_duration(self) -> float:
        return self.duration_ns


def _resolve_probe_executor(spec):
    """Turn the ``probe_executor`` argument into an executor, or ``None``.

    Unlike :func:`repro.pipeline.executors.resolve_executor`, a ``None``
    spec stays ``None`` — speculative probing is opt-in per call site, not
    inherited from the block-level executor (which would otherwise
    silently multiply GRAPE work inside every block).
    """
    if spec is None:
        return None
    from repro.pipeline.executors import resolve_executor

    executor = resolve_executor(spec)
    # An executor that declares speculation unhelpful (auto on a 1–2 CPU
    # host: no spare cores to hide the extra probes behind) degrades to the
    # lazy sequential doubling path, which does strictly less GRAPE work.
    if not getattr(executor, "speculation_helps", True):
        return None
    return executor


def _feasibility_probe(
    control_set: ControlSet,
    target: np.ndarray,
    hyper: GrapeHyperparameters,
    settings: GrapeSettings,
    dt: float,
    warm: PulseSchedule | None,
    memo,
    duration_ns: float,
) -> GrapeResult:
    """One independent feasibility probe (module-level so pools can pickle)."""
    steps = max(1, int(round(duration_ns / dt)))
    initial = warm.resampled(steps).controls if warm is not None else None
    return optimize_pulse(
        control_set, target, steps, hyper, settings, initial=initial, memo=memo
    )


def minimum_time_pulse(
    control_set: ControlSet,
    target: np.ndarray,
    upper_bound_ns: float,
    hyperparameters: GrapeHyperparameters | None = None,
    settings: GrapeSettings | None = None,
    precision_ns: float | None = None,
    lower_bound_ns: float = 0.0,
    max_doublings: int = 3,
    probe_executor=None,
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
    probe_executor:
        Optional :class:`~repro.pipeline.executors.BlockExecutor` (or
        executor name) for the feasibility-doubling probes.  ``None`` (the
        default) keeps the lazy sequential behavior: doublings run one at a
        time, stopping at the first success.  With an executor, all
        doubling candidates run speculatively — in parallel for the pool
        executors — and the shortest converged one wins; total iteration
        counts include every speculative probe.  Because every speculative
        probe warm-starts from the same pre-doubling best (instead of the
        sequential path's chained warm starts), the feasible duration found
        can differ slightly between the two modes; a first-probe success is
        identical either way.  The binary search itself always stays
        sequential (each probe decides the next interval).
    warm_start:
        Optional seed schedule (a cached neighbor's pulse or an analytic
        KAK seed).  Probes that have no in-search best yet start from it
        (resampled to the probe's step count) instead of random fields, and
        the seed's own duration is tried *first* when it undercuts the
        upper bound — a near-miss neighbor's minimum time is an excellent
        guess for this block's, letting the search open already close to
        the answer.
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
    probes: list[tuple] = []

    def run(duration_ns: float, warm: PulseSchedule | None) -> GrapeResult:
        nonlocal total_iterations, grape_calls, memo_hits
        steps = max(1, int(round(duration_ns / dt)))
        initial = warm.resampled(steps).controls if warm is not None else None
        result = optimize_pulse(
            control_set, target, steps, hyper, settings, initial=initial, memo=memo
        )
        total_iterations += result.iterations
        grape_calls += 1
        memo_hits += result.memo_hit
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
            snapped = {max(1, int(round(t / dt))) for t in (seed_duration,)}
            trial_times = [seed_duration] + [
                t
                for t in trial_times
                if max(1, int(round(t / dt))) not in snapped
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

    executor = _resolve_probe_executor(probe_executor)
    if not best.converged and doubling_times:
        if executor is not None and len(doubling_times) > 1:
            # Speculative phase: every doubling candidate probes at once
            # from the same warm start; keep the shortest converged one.
            from functools import partial

            worker = partial(
                _feasibility_probe,
                control_set,
                target,
                hyper,
                settings,
                dt,
                best.schedule,
                memo,
            )
            results = executor.map(worker, doubling_times)
            for duration, result in zip(doubling_times, results):
                total_iterations += result.iterations
                grape_calls += 1
                memo_hits += result.memo_hit
                steps = max(1, int(round(duration / dt)))
                probes.append((steps * dt, result.fidelity, result.converged))
            converged = [r for r in results if r.converged]
            if converged:
                # Ascending durations: the first converged is the shortest.
                best = converged[0]
            else:
                best = max([best, *results], key=lambda r: r.fidelity)
        else:
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
    # leftover window falls through to the ordinary binary search.
    descend_budget = 4 if seed_first and best.converged and grape_calls == 1 else 0
    while descend_budget and high - low > min_width:
        steps = max(1, int(round(high / dt))) - 1
        candidate = steps * dt
        if steps < 1 or candidate <= low:
            break
        descend_budget -= 1
        result = run(candidate, feasible.schedule)
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
    )
