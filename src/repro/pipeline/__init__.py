"""Unified compilation pipeline (transpile → block → pulse → assemble).

The four compilation strategies of the paper share one staged flow; this
package makes that flow explicit and declarative, in the spirit of Cirq's
transformer framework:

* :mod:`repro.pipeline.executors` — pluggable dispatch of independent
  per-block GRAPE searches: ``serial``, or ``auto``, which adds a pool of
  two forked search workers where a second CPU exists.  Both run pure tasks through
  ``run_tasks``.
* :mod:`repro.pipeline.jobs` — :class:`BlockJob`, the picklable
  seed-carrying block search every venue runs; the dispatching process
  resolves cache hits and seeds, and caches and judges the results.
* :mod:`repro.pipeline.stages` — composable :class:`Stage` objects carrying
  a :class:`PipelineContext` from circuit to pulse program.
* :mod:`repro.pipeline.pipeline` — :class:`CompilationPipeline`, an ordered
  stage list with per-stage wall-time telemetry, plus the batch entry
  point ``run_many``: the pulse stage always runs as one
  :class:`BlockScheduler` pass, and ``run`` is the batch of one.
* :mod:`repro.pipeline.plan` — :class:`CompilationPlan` /
  :class:`PlanCache`, content-addressed reuse of the blocking output: the
  aggregation pass, the per-block dedup-key hashing and the gate-based
  baseline run once per ansatz fingerprint and blocking mode (full GRAPE
  or strict), not once per compile call; the blocking stage replays them.
* :mod:`repro.pipeline.scheduler` — :class:`BlockScheduler`, which
  deduplicates block compilations across a batch of circuits before
  dispatch (N variational circuits sharing blocks compile each block once),
  and serves blocks the pulse cache already holds without dispatch.  A
  :class:`repro.service.CompilationService` keeps one cache for its
  lifetime, so iteration N+1 of a variational run pays only for blocks
  the service has never seen.
* :mod:`repro.pipeline.strategies` — the four declarative pipeline
  configurations behind ``repro.core``'s compilers.
"""

from repro.pipeline.executors import (
    BlockExecutor,
    SerialExecutor,
    resolve_executor,
)
from repro.pipeline.jobs import BlockJob
from repro.pipeline.pipeline import CompilationPipeline
from repro.pipeline.plan import CompilationPlan, PlanCache
from repro.pipeline.scheduler import BlockScheduler, SchedulerReport
from repro.pipeline.stages import (
    AssembleStage,
    BindStage,
    BlockingStage,
    BlockTask,
    GateScheduleStage,
    PipelineContext,
    PulseStage,
    Stage,
    TranspileStage,
)
from repro.pipeline.strategies import (
    flexible_precompile_pipeline,
    full_grape_pipeline,
    gate_based_pipeline,
    strict_precompile_pipeline,
)

__all__ = [
    "AssembleStage",
    "BindStage",
    "BlockExecutor",
    "BlockJob",
    "BlockScheduler",
    "BlockTask",
    "BlockingStage",
    "CompilationPipeline",
    "CompilationPlan",
    "PlanCache",
    "SchedulerReport",
    "GateScheduleStage",
    "PipelineContext",
    "PulseStage",
    "SerialExecutor",
    "Stage",
    "TranspileStage",
    "flexible_precompile_pipeline",
    "full_grape_pipeline",
    "gate_based_pipeline",
    "resolve_executor",
    "strict_precompile_pipeline",
]
