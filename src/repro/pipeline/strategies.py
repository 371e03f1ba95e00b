"""Declarative pipeline configurations for the four compilation strategies.

Each factory returns a :class:`~repro.pipeline.pipeline.CompilationPipeline`
whose stage stack *is* the strategy — the compiler classes in
:mod:`repro.core` are thin wrappers that build one of these pipelines and
convert its context into result records:

==================  =====================================================
strategy            stages
==================  =====================================================
gate-based          [transpile?] → bind → gate-schedule → assemble
full GRAPE          [transpile?] → bind → block → pulse → assemble+fallback
strict precompile   block(isolate θ) → pulse(fixed ∥, θ→lookup plan)
flexible precompile block(θ-slices) → pulse(fixed ∥, θ→tuning)
==================  =====================================================

The pulse stage dispatches fixed blocks through the configured
:class:`~repro.pipeline.executors.BlockExecutor`, which is where the
independent per-block GRAPE searches parallelize.  The full-GRAPE and
strict factories take an optional ``plan_cache`` and hand it, with the
block compiler, to their blocking stage (see :mod:`repro.pipeline.plan`).
"""

from __future__ import annotations

from typing import Callable

from repro.pipeline.executors import BlockExecutor, resolve_executor
from repro.pipeline.pipeline import CompilationPipeline
from repro.pipeline.stages import (
    AssembleStage,
    BindStage,
    BlockingStage,
    GateScheduleStage,
    PulseStage,
    TranspileStage,
)


def _prefix(pass_manager) -> list:
    return [TranspileStage(pass_manager)] if pass_manager is not None else []


def gate_based_pipeline(pass_manager=None) -> CompilationPipeline:
    """Lookup-table compilation: bind, ASAP-schedule, concatenate."""
    return CompilationPipeline(
        _prefix(pass_manager)
        + [BindStage(), GateScheduleStage(), AssembleStage(fallback=False)],
        name="gate",
    )


def full_grape_pipeline(
    block_compiler,
    max_width: int | None = None,
    executor: str | BlockExecutor | None = None,
    pass_manager=None,
    plan_cache=None,
) -> CompilationPipeline:
    """Blocked minimum-time GRAPE over the whole bound circuit.

    ``plan_cache`` replays the blocking of each ansatz; it is wired only
    without a ``pass_manager``, whose rewrite would change the circuit the
    plan key fingerprints.
    """
    if pass_manager is not None:
        plan_cache = None
    return CompilationPipeline(
        _prefix(pass_manager)
        + [
            BindStage(),
            BlockingStage(
                max_width, plan_cache=plan_cache, block_compiler=block_compiler
            ),
            PulseStage(block_compiler, executor=resolve_executor(executor)),
            AssembleStage(fallback=True),
        ],
        name="grape",
    )


def strict_precompile_pipeline(
    block_compiler,
    parametrized_handler: Callable,
    max_width: int | None = None,
    executor: str | BlockExecutor | None = None,
    plan_cache=None,
) -> CompilationPipeline:
    """Strict partial precompilation: isolate θ-gates, GRAPE the rest.

    ``parametrized_handler`` maps an isolated ``Rz(θ)`` task to the
    strategy's runtime plan entry (a lookup pulse slot).  ``plan_cache``
    replays the isolate-θ blocking of each ansatz.
    """
    return CompilationPipeline(
        [
            BlockingStage(
                max_width,
                isolate_parametrized=True,
                plan_cache=plan_cache,
                block_compiler=block_compiler,
            ),
            PulseStage(
                block_compiler,
                executor=resolve_executor(executor),
                parametrized_handler=parametrized_handler,
            ),
        ],
        name="strict-precompile",
    )


def flexible_precompile_pipeline(
    block_compiler,
    parametrized_handler: Callable,
    slicer: Callable,
    max_width: int | None = None,
    executor: str | BlockExecutor | None = None,
) -> CompilationPipeline:
    """Flexible partial precompilation over single-θ slices.

    ``slicer`` cuts the symbolic circuit at parameter-group boundaries
    (:func:`repro.core.slicing.flexible_slices`); ``parametrized_handler``
    tunes hyperparameters and produces the warm-start entry for each
    single-θ block.
    """
    return CompilationPipeline(
        [
            BlockingStage(max_width, slicer=slicer),
            PulseStage(
                block_compiler,
                executor=resolve_executor(executor),
                parametrized_handler=parametrized_handler,
            ),
        ],
        name="flexible-precompile",
    )
