"""Unified compilation pipeline (transpile → block → pulse → assemble).

The four compilation strategies of the paper share one staged flow; this
package makes that flow explicit and declarative, in the spirit of Cirq's
transformer framework:

* :mod:`repro.pipeline.executors` — pluggable dispatch of independent
  per-block GRAPE searches: serial, thread pool, process pool, or the
  persistent pool variants that stay warm across every ``map`` of a run;
  all implement the :class:`Dispatcher` contract over serializable jobs.
* :mod:`repro.pipeline.jobs` — :class:`BlockJob`, the picklable
  block-compilation descriptor: a seed-carrying pure search for the
  executors and the ``auto`` executor's search worker, a whole compile
  against a pulse cache (:func:`run_block_job`) for the
  :mod:`repro.fleet` worker processes.
* :mod:`repro.pipeline.stages` — composable :class:`Stage` objects carrying
  a :class:`PipelineContext` from circuit to pulse program.
* :mod:`repro.pipeline.pipeline` — :class:`CompilationPipeline`, an ordered
  stage list with per-stage wall-time telemetry, plus the batch entry
  point ``run_many``.
* :mod:`repro.pipeline.plan` — :class:`CompilationPlan` /
  :class:`PlanCache`, content-addressed reuse of the blocking output: the
  aggregation pass and the per-block dedup-key hashing run once per ansatz
  fingerprint, not once per compile call.
* :mod:`repro.pipeline.scheduler` — :class:`BlockScheduler`, which
  deduplicates block compilations across a batch of circuits before
  dispatch (N variational circuits sharing blocks compile each block once),
  optionally carrying a persistent :class:`SchedulerState` across calls.
* :mod:`repro.pipeline.session` — :class:`VariationalSession`, the
  long-lived streaming mode: one scheduler + executor + open pulse cache
  shared by every ``compile`` of a variational run, so iteration N+1 pays
  only for blocks the whole session has never seen.
* :mod:`repro.pipeline.strategies` — the four declarative pipeline
  configurations behind ``repro.core``'s compiler classes.
"""

from repro.pipeline.executors import (
    BlockExecutor,
    Dispatcher,
    PersistentProcessPoolBlockExecutor,
    PersistentThreadPoolBlockExecutor,
    ProcessPoolBlockExecutor,
    SerialExecutor,
    ThreadPoolBlockExecutor,
    persistent_executor_stats,
    resolve_executor,
    shutdown_persistent_executors,
)
from repro.pipeline.jobs import BlockJob, run_block_job
from repro.pipeline.pipeline import CompilationPipeline
from repro.pipeline.plan import CompilationPlan, PlanCache
from repro.pipeline.scheduler import BlockScheduler, SchedulerReport, SchedulerState
from repro.pipeline.session import VariationalSession
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
    "Dispatcher",
    "PlanCache",
    "SchedulerReport",
    "SchedulerState",
    "VariationalSession",
    "GateScheduleStage",
    "PersistentProcessPoolBlockExecutor",
    "PersistentThreadPoolBlockExecutor",
    "PipelineContext",
    "ProcessPoolBlockExecutor",
    "PulseStage",
    "SerialExecutor",
    "Stage",
    "ThreadPoolBlockExecutor",
    "TranspileStage",
    "flexible_precompile_pipeline",
    "full_grape_pipeline",
    "gate_based_pipeline",
    "persistent_executor_stats",
    "resolve_executor",
    "run_block_job",
    "shutdown_persistent_executors",
    "strict_precompile_pipeline",
]
