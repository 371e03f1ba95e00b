"""The declarative compilation pipeline.

:class:`CompilationPipeline` is an ordered list of
:class:`~repro.pipeline.stages.Stage` objects run over one
:class:`~repro.pipeline.stages.PipelineContext`, timing each stage.  It is
the pulse-level sibling of the transpiler's
:class:`~repro.transpile.passes.PassManager`: where the pass manager
composes circuit→circuit rewrites, the pipeline composes the full
circuit→blocks→pulses→program flow that all four compilation strategies
share.
"""

from __future__ import annotations

import time
from typing import Iterable

from repro.errors import PipelineError
from repro.perf import get_perf_registry
from repro.pipeline.stages import PipelineContext, PulseStage, Stage


class CompilationPipeline:
    """An ordered, named sequence of compilation stages."""

    def __init__(self, stages: Iterable[Stage] = (), name: str = "pipeline"):
        self.stages: list[Stage] = list(stages)
        self.name = name
        for stage in self.stages:
            if not hasattr(stage, "run"):
                raise PipelineError(f"{stage!r} is not a pipeline stage")

    @property
    def stage_names(self) -> tuple:
        """The declared stage order (telemetry keys match these names)."""
        return tuple(stage.name for stage in self.stages)

    def append(self, stage: Stage) -> "CompilationPipeline":
        """Add ``stage`` at the end; returns self for chaining."""
        if not hasattr(stage, "run"):
            raise PipelineError(f"{stage!r} is not a pipeline stage")
        self.stages.append(stage)
        return self

    def run(self, circuit, values=None) -> PipelineContext:
        """Flow ``circuit`` (with optional parameter ``values``) through all
        stages, returning the accumulated context.

        A pipeline with a pulse stage compiles through :meth:`run_many` as
        a batch of one, so every fixed block takes the one scheduler route.
        Per-stage wall time lands in ``context.stage_timings`` in execution
        order, so callers can report exactly where compilation latency went.
        """
        if self._pulse_index() is not None:
            contexts, _ = self.run_many([circuit], [values])
            return contexts[0]
        context = PipelineContext(circuit=circuit, values=values)
        for stage in self.stages:
            self._run_stage(stage, context)
        return context

    def _pulse_index(self) -> int | None:
        """Position of the scheduler-run pulse stage, ``None`` without one."""
        return next(
            (
                i
                for i, stage in enumerate(self.stages)
                if isinstance(stage, PulseStage) and stage.block_compiler is not None
            ),
            None,
        )

    @staticmethod
    def _run_stage(stage: Stage, context: PipelineContext) -> None:
        start = time.perf_counter()
        stage.run(context)
        elapsed = time.perf_counter() - start
        context.stage_timings.append((stage.name, elapsed))
        get_perf_registry().record_seconds(f"pipeline.stage.{stage.name}", elapsed)

    def run_many(self, circuits, values=None) -> tuple:
        """Flow a *batch* of circuits through the pipeline, deduplicating
        block compilations across the whole batch.

        Stages before the pulse stage run per circuit as usual; the pulse
        stage is replaced by one
        :class:`~repro.pipeline.scheduler.BlockScheduler` pass over every
        context's tasks, so blocks shared between circuits (variational
        iterations of one ansatz, molecules sharing CX ladders) compile
        exactly once; stages after it run per circuit again.  Returns
        ``(contexts, report)`` with contexts in input order.  Pipelines
        without a dedup-capable pulse stage (no ``block_compiler``, e.g.
        the gate-based strategy) fall back to independent ``run`` calls and
        a ``None`` report.

        Dedup reaches *across* calls through the pulse stage's cache: a
        block its memory tier already holds is served without dispatch and
        counted in ``reused_blocks`` (see :mod:`repro.pipeline.scheduler`),
        which is how the service's strategies reuse blocks across requests.

        Blocking across calls is the blocking stage's business: a
        :class:`~repro.pipeline.stages.BlockingStage` built with a plan
        cache replays each circuit's content-addressed plan itself, so
        every circuit here simply runs the stages before the pulse stage.
        """
        from repro.pipeline.scheduler import BlockScheduler

        circuits = list(circuits)
        values = list(values) if values is not None else [None] * len(circuits)
        if len(values) != len(circuits):
            raise PipelineError(
                f"got {len(circuits)} circuits but {len(values)} value sets"
            )
        pulse_index = self._pulse_index()
        if pulse_index is None:
            return [
                self.run(circuit, vals) for circuit, vals in zip(circuits, values)
            ], None

        pulse = self.stages[pulse_index]
        contexts = []
        for circuit, vals in zip(circuits, values):
            context = PipelineContext(circuit=circuit, values=vals)
            for stage in self.stages[:pulse_index]:
                self._run_stage(stage, context)
            contexts.append(context)

        scheduler = BlockScheduler(
            pulse.block_compiler, pulse.executor, pulse.parametrized_handler
        )
        start = time.perf_counter()
        report = scheduler.run(contexts)
        elapsed = time.perf_counter() - start
        get_perf_registry().record_seconds(f"pipeline.stage.{pulse.name}", elapsed)
        for context in contexts:
            # The pulse stage ran once for the whole batch; every context
            # reports the shared wall time so latency stays attributable.
            context.stage_timings.append((pulse.name, elapsed))
            context.metadata["scheduler"] = report.as_dict()

        for context in contexts:
            for stage in self.stages[pulse_index + 1 :]:
                self._run_stage(stage, context)
        return contexts, report

    def describe(self) -> dict:
        """A telemetry-friendly summary of the pipeline's shape."""
        return {"pipeline": self.name, "stages": list(self.stage_names)}

    def __len__(self) -> int:
        return len(self.stages)

    def __repr__(self) -> str:
        return f"CompilationPipeline({self.name!r}, stages={list(self.stage_names)})"
