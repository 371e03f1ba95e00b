"""Flexible partial compilation (paper section 7).

Slice the circuit at parameter-group boundaries (parameter monotonicity,
section 7.1) into deep subcircuits that depend on exactly one θᵢ.  Blocks
without a parametrized gate are GRAPE-precompiled like strict partial
compilation; for each parametrized block the *hyperparameters* (ADAM
learning rate + decay), the working pulse duration, and a warm-start pulse
are precomputed.  At run time a single short GRAPE run per parametrized
block — tuned hyperparameters, warm start, no binary search — recovers full
GRAPE's pulse duration at a small fraction of its latency.

Both phases route through the :mod:`repro.pipeline` machinery: the
precompute phase is the ``block(θ-slices) → pulse`` pipeline with a tuning
handler for parametrized tasks, and the runtime phase hands the per-θ
GRAPE refinements, which are independent pure tasks, to the block
executor's :meth:`~repro.pipeline.executors.BlockExecutor.run_tasks`.
Under the service's ``auto`` executor the calling thread and a forked
search worker share them, each taking the next unclaimed plan entry (a
request that overlaps another hands them all to a worker);
``serial`` runs them one after another.  Either way the pulses are the
same.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.dag import critical_path_ns
from repro.core.cache import PulseCache
from repro.core.compiler import BlockPulseCompiler, default_device_for, gate_based_program
from repro.core.hyperopt import (
    DEFAULT_DECAY_RATES,
    DEFAULT_LEARNING_RATES,
    TuningResult,
    sample_targets,
    tune_hyperparameters,
)
from repro.core.results import CompiledPulse, PrecompileReport
from repro.core.slicing import flexible_slices
from repro.errors import CompilationError
from repro.pipeline.executors import resolve_executor
from repro.pipeline.stages import BlockTask
from repro.pipeline.strategies import flexible_precompile_pipeline
from repro.pulse.device import GmonDevice
from repro.pulse.grape.engine import (
    GrapeHyperparameters,
    GrapeSettings,
    optimize_pulse,
)
from repro.pulse.grape.time_search import minimum_time_pulse
from repro.pulse.hamiltonian import ControlSet, build_control_set
from repro.pulse.schedule import PulseProgram, PulseSchedule, lookup_schedule
from repro.service.config import ServiceConfig
from repro.sim.unitary import circuit_unitary


@dataclass
class _FixedEntry:
    schedule: PulseSchedule


@dataclass
class _ParametrizedEntry:
    """Runtime plan for one single-θ block."""

    subcircuit: QuantumCircuit  # local qubits, still symbolic
    device_qubits: tuple
    control_set: ControlSet
    hyperparameters: GrapeHyperparameters
    num_steps: int
    warm_start: np.ndarray  # controls from the tuning sample
    gate_based_ns: float
    tuning: TuningResult
    probe_iterations: int = 0  # minimum-time probe cost (precompute phase)
    memo_hits: int = 0  # probe and tuning runs replayed from the memo


def _tune_parametrized_block(
    device: GmonDevice,
    settings: GrapeSettings,
    hyperparameters: GrapeHyperparameters | None,
    tuning_samples: int,
    lr_grid: tuple,
    decay_grid: tuple,
    seed: int,
    tuning_strategy: str,
    memo,
    task: BlockTask,
) -> _ParametrizedEntry:
    """Precompute phase for one single-θ block (picklable pulse handler).

    Establishes the working pulse duration with a minimum-time probe on the
    first sample target, then tunes the optimizer hyperparameters over the
    sample angles (paper section 7.2).  Every probe and tuning run goes through ``memo`` (a
    :class:`~repro.pulse.grape.memo.GrapeRunMemo`, or ``None``).
    """
    sub = task.subcircuit
    dt = settings.resolved_dt()
    control_set = build_control_set(device, task.device_qubits)
    gate_ns = critical_path_ns(sub)
    # Seed on the per-slice block index so the sampled angles match the
    # pre-pipeline numerics and stay stable under earlier-slice changes.
    targets = sample_targets(sub, tuning_samples, seed=seed + task.local_index)
    probe = minimum_time_pulse(
        control_set,
        targets[0],
        upper_bound_ns=max(gate_ns, dt),
        hyperparameters=hyperparameters,
        settings=settings,
        memo=memo,
    )
    if probe.converged and probe.duration_ns <= gate_ns:
        num_steps = probe.schedule.num_steps
        warm = probe.schedule.controls
    else:
        num_steps = max(1, int(round(gate_ns / dt)))
        warm = np.zeros((control_set.num_controls, num_steps))
    if tuning_strategy == "grid":
        tuning = tune_hyperparameters(
            control_set,
            targets,
            num_steps,
            settings=settings,
            learning_rates=lr_grid,
            decay_rates=decay_grid,
            memo=memo,
        )
    else:
        from repro.core.search import tune_with_strategy

        tuning = tune_with_strategy(
            tuning_strategy,
            control_set,
            targets,
            num_steps,
            settings=settings,
            seed=seed + task.local_index,
            memo=memo,
        )
    return _ParametrizedEntry(
        subcircuit=sub,
        device_qubits=tuple(task.device_qubits),
        control_set=control_set,
        hyperparameters=tuning.best,
        num_steps=num_steps,
        warm_start=warm,
        gate_based_ns=gate_ns,
        tuning=tuning,
        probe_iterations=probe.total_iterations,
        memo_hits=probe.memo_hits + tuning.memo_hits,
    )


def check_tuning_samples(tuning_samples) -> None:
    """Raise :class:`CompilationError` unless ``tuning_samples`` (the
    sample angles each single-θ block is tuned on) is a positive integer."""
    if (
        not isinstance(tuning_samples, numbers.Integral)
        or isinstance(tuning_samples, bool)
        or tuning_samples < 1
    ):
        raise CompilationError(
            f"tuning_samples must be a positive integer, got {tuning_samples!r}"
        )


def _block_tuner(
    device,
    settings,
    hyperparameters,
    tuning_samples,
    learning_rates,
    decay_rates,
    seed,
    tuning_strategy,
    memo,
):
    """The picklable per-θ-block precompile handler, its options checked."""
    check_tuning_samples(tuning_samples)
    return partial(
        _tune_parametrized_block,
        device,
        settings,
        hyperparameters,
        tuning_samples,
        learning_rates or DEFAULT_LEARNING_RATES,
        decay_rates or DEFAULT_DECAY_RATES,
        seed,
        tuning_strategy,
        memo,
    )


def _compile_runtime_entry(
    settings: GrapeSettings, values: dict, entry: _ParametrizedEntry
) -> tuple:
    """Runtime work for one parametrized plan entry (a pure, picklable task
    for :meth:`~repro.pipeline.executors.BlockExecutor.run_tasks`).

    Returns ``(schedule, iterations, used_block_fallback)``: one tuned
    warm-started GRAPE, with a single growth escalation toward the
    gate-based bound before falling back to lookup pulses.
    """
    bound = entry.subcircuit.bind_parameters(values)
    target = circuit_unitary(bound)
    iterations = 0
    result = optimize_pulse(
        entry.control_set,
        target,
        entry.num_steps,
        entry.hyperparameters,
        settings,
        initial=entry.warm_start,
    )
    iterations += result.iterations
    if not result.converged:
        # One escalation: grow the pulse toward the gate-based bound.
        dt = settings.resolved_dt()
        grow_steps = max(
            entry.num_steps + 1,
            min(
                int(round(entry.gate_based_ns / dt)),
                int(round(entry.num_steps * 1.25)) + 1,
            ),
        )
        retry = optimize_pulse(
            entry.control_set,
            target,
            grow_steps,
            entry.hyperparameters,
            settings,
            initial=result.schedule.resampled(grow_steps).controls,
        )
        iterations += retry.iterations
        result = retry
    if result.converged:
        schedule = PulseSchedule(
            qubits=entry.device_qubits,
            dt_ns=result.schedule.dt_ns,
            controls=result.schedule.controls,
            channel_names=result.schedule.channel_names,
            source="flexible",
        )
        return (schedule, iterations, False)
    # Guaranteed-correct fallback: lookup pulses for the block.
    schedule = lookup_schedule(
        entry.device_qubits, entry.gate_based_ns, source="fallback"
    )
    return (schedule, iterations, True)


class _FlexiblePartialCompiler:
    """Tuned-hyperparameter GRAPE per single-θ block at run time."""

    method = "flexible"

    def __init__(
        self,
        circuit: QuantumCircuit,
        device: GmonDevice,
        plan: list,
        report: PrecompileReport,
        settings: GrapeSettings,
        executor=None,
    ):
        self.circuit = circuit
        self.device = device
        self._plan = plan
        self.report = report
        self.settings = settings
        self.executor = executor
        self.parameters = circuit.parameters

    # -- precompute phase ----------------------------------------------------
    @classmethod
    def precompile_many(
        cls,
        circuits: Sequence[QuantumCircuit],
        device: GmonDevice | None = None,
        settings: GrapeSettings | None = None,
        hyperparameters: GrapeHyperparameters | None = None,
        max_block_width: int | None = None,
        cache: PulseCache | None = None,
        tuning_samples: int = 2,
        learning_rates: tuple | None = None,
        decay_rates: tuple | None = None,
        seed: int = 11,
        tuning_strategy: str = "grid",
        executor=None,
        state=None,
        grape_memo=None,
        config: ServiceConfig | None = None,
    ) -> list:
        """Slice, precompile Fixed blocks, and tune parametrized blocks of a
        batch of ansätze, sharing Fixed blocks across them.

        The Fixed blocks flow through one
        :class:`~repro.pipeline.scheduler.BlockScheduler` pass over the
        whole batch (and, via ``state``, across successive calls — see
        :meth:`_StrictPartialCompiler.precompile_many
        <repro.core.strict._StrictPartialCompiler.precompile_many>`), while
        each parametrized single-θ block is tuned per circuit as usual.
        ``tuning_strategy`` selects the hyperparameter tuner: ``"grid"``
        (the default exhaustive sweep), or one of the budget-aware
        strategies in :mod:`repro.core.search` (``"random"``,
        ``"halving"``, ``"rbf"``).
        ``grape_memo`` (a :class:`~repro.pulse.grape.memo.GrapeRunMemo`)
        replays the probe and tuning runs an earlier precompile already
        ran; each report's ``metadata["grape_memo_hits"]`` counts them.
        ``config`` (a :class:`~repro.service.ServiceConfig`) supplies the
        warm-start and batched-GRAPE settings; ``None`` uses the defaults.
        Returns one compiler per circuit, in order, with the shared batch
        wall time and dedup accounting on every report.
        """
        circuits = list(circuits)
        if not circuits:
            return []
        device = device or default_device_for(
            max(circuits, key=lambda c: c.num_qubits)
        )
        settings = settings or GrapeSettings()
        config = config if config is not None else ServiceConfig()
        block_compiler = BlockPulseCompiler(
            device,
            settings,
            hyperparameters,
            cache if cache is not None else PulseCache(),
            warm_start=config.warm_start,
        )
        tuner = _block_tuner(
            device,
            settings,
            hyperparameters,
            tuning_samples,
            learning_rates,
            decay_rates,
            seed,
            tuning_strategy,
            grape_memo,
        )
        pipeline = flexible_precompile_pipeline(
            block_compiler, tuner, flexible_slices, max_block_width, executor
        )
        start = time.perf_counter()
        contexts, report = pipeline.run_many(
            circuits,
            state=state,
            grape_batch=config.grape_batch,
        )
        elapsed = time.perf_counter() - start
        batch_metadata = {
            "scheduler": report.as_dict() if report is not None else None,
            "batch": len(circuits),
        }
        return [
            cls._from_context(
                circuit,
                device,
                block_compiler,
                context,
                elapsed,
                settings,
                executor,
                batch_metadata,
            )
            for circuit, context in zip(circuits, contexts)
        ]

    @classmethod
    def _from_context(
        cls,
        circuit: QuantumCircuit,
        device: GmonDevice,
        block_compiler: BlockPulseCompiler,
        context,
        wall_time_s: float,
        settings: GrapeSettings,
        executor,
        extra_metadata: dict | None = None,
    ) -> "_FlexiblePartialCompiler":
        """Fold one precompile pipeline context into a compiler instance."""
        iterations = 0
        fixed_blocks = 0
        param_blocks = 0
        cache_hits = 0
        hyperopt_trials = 0
        memo_hits = 0
        plan: list = []
        for task, result in zip(context.tasks, context.block_results):
            if task.kind == "parametrized":
                param_blocks += 1
                iterations += result.probe_iterations
                iterations += result.tuning.total_iterations
                hyperopt_trials += len(result.tuning.trials)
                memo_hits += result.memo_hits
                plan.append(result)
            else:
                iterations += result.iterations
                fixed_blocks += 1
                cache_hits += int(result.cache_hit)
                plan.append(_FixedEntry(result.schedule))
        metadata = {
            "stage_timings": context.stage_timing_dict(),
            "grape_memo_hits": memo_hits,
        }
        if extra_metadata:
            metadata.update(extra_metadata)
        report = PrecompileReport(
            method=cls.method,
            wall_time_s=wall_time_s,
            grape_iterations=iterations,
            blocks_precompiled=fixed_blocks,
            parametrized_blocks=param_blocks,
            cache_hits=cache_hits,
            hyperopt_trials=hyperopt_trials,
            executor=context.executor_info.get("executor", "serial"),
            cache_stats=block_compiler.cache.stats(),
            metadata=metadata,
        )
        return cls(circuit, device, plan, report, settings, executor=executor)

    # -- runtime --------------------------------------------------------------
    def compile(self, values: Sequence[float] | dict) -> CompiledPulse:
        """One variational iteration: short tuned GRAPE per θ-block.

        The per-θ refinements are independent pure tasks, so they go
        through the block executor's ``run_tasks``: on ``auto`` with an
        idle search worker, the worker runs the entries the calling thread
        has not claimed yet; on ``serial`` they run in order here.  Fixed
        entries pass straight through, so no venue ships them.
        """
        if not isinstance(values, dict):
            values = dict(zip(self.parameters, values))
        missing = [p.name for p in self.parameters if p not in values]
        if missing:
            raise CompilationError(f"missing values for parameters {missing}")

        start = time.perf_counter()
        worker = partial(_compile_runtime_entry, self.settings, values)
        runs = iter(
            resolve_executor(self.executor).run_tasks(
                worker,
                [e for e in self._plan if not isinstance(e, _FixedEntry)],
            )
        )
        results = [
            (entry.schedule, 0, False)
            if isinstance(entry, _FixedEntry)
            else next(runs)
            for entry in self._plan
        ]
        schedules = [schedule for schedule, _, _ in results]
        iterations = sum(iters for _, iters, _ in results)
        fallbacks = sum(1 for _, _, fell_back in results if fell_back)
        program = PulseProgram.sequence(schedules)
        # Strictly-better guarantee: never exceed the lookup-table baseline.
        used_fallback = False
        baseline = gate_based_program(self.circuit.bind_parameters(values))
        if baseline.duration_ns < program.duration_ns:
            program = baseline
            used_fallback = True
        elapsed = time.perf_counter() - start
        return CompiledPulse(
            method=self.method,
            program=program,
            pulse_duration_ns=program.duration_ns,
            runtime_latency_s=elapsed,
            runtime_iterations=iterations,
            blocks_compiled=len(schedules),
            metadata={"fallback_blocks": fallbacks, "program_fallback": used_fallback},
        )
