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
from repro.pipeline.stages import PipelineContext, Stage
from repro.service.config import ServiceConfig


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

        Per-stage wall time lands in ``context.stage_timings`` in execution
        order, so callers can report exactly where compilation latency went.
        """
        context = PipelineContext(circuit=circuit, values=values)
        for stage in self.stages:
            self._run_stage(stage, context)
        return context

    @staticmethod
    def _run_stage(stage: Stage, context: PipelineContext) -> None:
        start = time.perf_counter()
        stage.run(context)
        elapsed = time.perf_counter() - start
        context.stage_timings.append((stage.name, elapsed))
        get_perf_registry().record_seconds(f"pipeline.stage.{stage.name}", elapsed)

    def _run_with_plan(self, circuit, context, plan_cache, plan_scope, pulse) -> None:
        """Run the bind→block prefix through the content-addressed plan cache.

        The bind stage always runs (it produces this binding's working
        circuit); the blocking stage is replayed from a cached
        :class:`~repro.pipeline.plan.CompilationPlan` on a hit, or run and
        captured on a miss.  Either way the context leaves with pre-keyed
        tasks, identical to what the ordinary path would have produced.
        """
        from repro.pipeline.plan import build_plan, plan_key

        bind, blocking = self.stages[0], self.stages[1]
        key = plan_key(
            circuit, blocking._width(), pulse.block_compiler, scope=plan_scope
        )
        self._run_stage(bind, context)
        start = time.perf_counter()
        plan = plan_cache.lookup(key)
        if plan is not None:
            plan.apply(context)
            plan_cache.note_skip()
        else:
            blocking.run(context)
            plan_cache.insert(
                key, build_plan(key, circuit, context, pulse.block_compiler)
            )
        elapsed = time.perf_counter() - start
        context.stage_timings.append((blocking.name, elapsed))
        get_perf_registry().record_seconds(
            f"pipeline.stage.{blocking.name}", elapsed
        )

    def run_many(
        self,
        circuits,
        values=None,
        scheduler=None,
        state=None,
        plan_cache=None,
        plan_scope: str = "",
        grape_batch: bool = ServiceConfig.grape_batch,
        grape_batch_size: int = ServiceConfig.grape_batch_size,
    ) -> tuple:
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

        ``state`` (a :class:`~repro.pipeline.scheduler.SchedulerState`)
        makes the batch *streaming*: the per-batch scheduler is built
        around the caller's state object, so dedup memory persists across
        successive ``run_many`` calls sharing that state — this is how
        :class:`repro.pipeline.session.VariationalSession` and the
        strategies' ``precompile_many`` reuse blocks across calls.
        ``scheduler`` goes further and supplies the whole caller-owned
        :class:`~repro.pipeline.scheduler.BlockScheduler` (``state`` is
        then ignored).

        ``plan_cache`` (a :class:`~repro.pipeline.plan.PlanCache`) makes
        the blocking pass content-addressed: when the pipeline's pre-pulse
        stages are exactly bind + plain blocking, each circuit's blocking
        output is looked up by content fingerprint and replayed on a hit —
        aggregation and per-block dedup-key hashing run once per ansatz,
        not once per call.  Misses build and insert the plan.
        ``plan_scope`` namespaces the cache keys per caller.

        ``grape_batch`` / ``grape_batch_size`` set the cross-block
        batched-GRAPE dispatch for this pass's scheduler (both are ignored
        when a caller-owned ``scheduler`` is supplied).
        """
        from repro.pipeline.scheduler import BlockScheduler
        from repro.pipeline.stages import BindStage, BlockingStage, PulseStage

        circuits = list(circuits)
        values = list(values) if values is not None else [None] * len(circuits)
        if len(values) != len(circuits):
            raise PipelineError(
                f"got {len(circuits)} circuits but {len(values)} value sets"
            )
        pulse_index = next(
            (
                i
                for i, stage in enumerate(self.stages)
                if isinstance(stage, PulseStage) and stage.block_compiler is not None
            ),
            None,
        )
        if pulse_index is None:
            return [
                self.run(circuit, vals) for circuit, vals in zip(circuits, values)
            ], None

        pulse = self.stages[pulse_index]
        # Plans replay only the plain bind→block prefix: slicer and
        # isolate_parametrized modes derive tasks from bound values, and a
        # transpile stage rewrites the circuit the fingerprint was taken
        # over — those pipelines keep the ordinary per-circuit path.
        plannable = (
            plan_cache is not None
            and pulse_index == 2
            and isinstance(self.stages[0], BindStage)
            and isinstance(self.stages[1], BlockingStage)
            and self.stages[1].slicer is None
            and not self.stages[1].isolate_parametrized
        )
        contexts = []
        for circuit, vals in zip(circuits, values):
            context = PipelineContext(circuit=circuit, values=vals)
            if plannable:
                self._run_with_plan(circuit, context, plan_cache, plan_scope, pulse)
            else:
                for stage in self.stages[:pulse_index]:
                    self._run_stage(stage, context)
            contexts.append(context)

        if scheduler is None:
            scheduler = BlockScheduler(
                pulse.block_compiler,
                pulse.executor,
                pulse.parametrized_handler,
                state=state,
                grape_batch=grape_batch,
                grape_batch_size=grape_batch_size,
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
