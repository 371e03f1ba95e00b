"""Ablation benches for the design choices DESIGN.md calls out.

Three mechanisms make the reproduction (and the paper's system) tractable;
each is ablated here on a small fixed workload:

1. **Warm-starting the minimum-time binary search** — each probe reuses the
   best feasible pulse resampled to the new step count.
2. **The pulse cache** — variational circuits repeat blocks heavily, so
   keying GRAPE results by (phase-canonical unitary, physical context)
   removes most GRAPE calls from strict precompilation.
3. **Tuned hyperparameters** (the flexible-partial-compilation mechanism
   itself) — tuned (lr, decay) vs the defaults, on the same block.
"""

import numpy as np
import pytest

import common
from repro.analysis import format_table
from repro.core.hyperopt import sample_targets, tune_hyperparameters
from repro.pulse.grape import (
    GrapeHyperparameters,
    GrapeSettings,
    minimum_time_pulse,
    optimize_pulse,
)
from repro.pulse.hamiltonian import build_control_set
from repro.pulse.device import GmonDevice
from repro.service import CompilationService, CompileRequest, ServiceConfig
from repro.sim import circuit_unitary
from repro.transpile import line_topology

SETTINGS = GrapeSettings(dt_ns=0.25, target_fidelity=0.99)
HYPER = GrapeHyperparameters(learning_rate=0.05, decay_rate=0.002, max_iterations=250)


def _cx_target():
    from repro.circuits import QuantumCircuit

    return circuit_unitary(QuantumCircuit(2).cx(0, 1))


def _warm_start_ablation():
    """Minimum-time search iterations with and without warm starts."""
    device = GmonDevice(line_topology(2))
    control_set = build_control_set(device, [0, 1])
    target = _cx_target()
    warm = minimum_time_pulse(
        control_set, target, upper_bound_ns=8.0,
        hyperparameters=HYPER, settings=SETTINGS, precision_ns=0.3,
    )
    # "Cold" variant: run each probe duration from scratch.
    cold_iterations = 0
    cold_best_duration = float("inf")
    for duration, _, _ in warm.probes:
        steps = max(1, int(round(duration / SETTINGS.resolved_dt())))
        result = optimize_pulse(control_set, target, steps, HYPER, SETTINGS)
        cold_iterations += result.iterations
        if result.converged:
            cold_best_duration = min(cold_best_duration, steps * SETTINGS.resolved_dt())
    return (
        warm.total_iterations,
        cold_iterations,
        warm.duration_ns,
        cold_best_duration,
    )


def _cache_ablation():
    """Strict LiH precompile with and without the pulse cache."""
    circuit = common.vqe_circuit("LiH")
    # A fresh service: its pulse cache starts empty.
    with CompilationService(
        config=ServiceConfig(),
        device=common.device_for(circuit),
        settings=SETTINGS,
        hyperparameters=HYPER,
    ) as service:
        cached = service.compile(
            CompileRequest(
                circuit, None, strategy="strict-partial", max_block_width=2
            )
        ).compiler
    # The report already counts cache hits; the ablated cost is estimated
    # exactly: every cache hit would have cost its block's GRAPE iterations.
    hits = cached.report.cache_hits
    total_blocks = cached.report.blocks_precompiled
    return cached.report.grape_iterations, hits, total_blocks


def _hyperparameter_ablation():
    """Iterations-to-converge: tuned (lr, decay) vs defaults, on one block."""
    from repro.circuits import QuantumCircuit
    from repro.circuits.parameters import Parameter

    theta = Parameter("theta_0")
    sub = QuantumCircuit(2)
    sub.h(0).cx(0, 1).rz(theta, 1).cx(0, 1).h(0)
    device = GmonDevice(line_topology(2))
    control_set = build_control_set(device, [0, 1])
    targets = sample_targets(sub, 2, seed=3)
    tuning = tune_hyperparameters(
        control_set, targets, num_steps=24, settings=SETTINGS,
        learning_rates=(0.01, 0.03, 0.1), decay_rates=(0.0, 0.01),
        iteration_budget=250,
    )
    default_iters = []
    tuned_iters = []
    default_hyper = GrapeHyperparameters(0.005, 0.0, max_iterations=250)
    for target in targets:
        default_iters.append(
            optimize_pulse(control_set, target, 24, default_hyper, SETTINGS).iterations
        )
        tuned_iters.append(
            optimize_pulse(control_set, target, 24, tuning.best, SETTINGS).iterations
        )
    return float(np.mean(tuned_iters)), float(np.mean(default_iters)), tuning.best


def test_ablation_design_choices(benchmark, capsys):
    def run_all():
        return _warm_start_ablation(), _cache_ablation(), _hyperparameter_ablation()

    (warm, cold, duration, cold_duration), (iters, hits, blocks), (tuned, default, best) = (
        benchmark.pedantic(run_all, rounds=1, iterations=1)
    )
    text = format_table(
        ["design choice", "with", "without", "factor"],
        [
            ["warm-started time search (iters)", warm, cold, cold / max(1, warm)],
            ["pulse cache (LiH blocks GRAPE'd)", blocks - hits, blocks,
             blocks / max(1, blocks - hits)],
            ["tuned hyperparameters (iters)", tuned, default, default / max(1, tuned)],
        ],
        title="Ablations: warm starts, pulse cache, hyperparameter tuning",
        precision=1,
    )
    common.report("ablation_design_choices", text, capsys)
    # Each mechanism must pay for itself on this workload.  Warm starting
    # buys *solution quality*: the warm-started search must find a pulse at
    # least as short as the best any cold probe converged to, at a
    # comparable (not necessarily smaller) iteration cost — resampled
    # warm starts occasionally descend longer than a lucky random init.
    # (within one binary-search precision step, 0.3 ns)
    assert duration <= cold_duration + 0.3 + 1e-9
    assert warm <= cold * 1.5
    assert hits > 0
    assert tuned <= default * 1.05
