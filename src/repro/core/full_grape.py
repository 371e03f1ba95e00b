"""Full GRAPE compilation (paper section 5).

The whole bound circuit is blocked into ≤4-qubit subcircuits, each compiled
with the minimum-time GRAPE search.  This gives the best pulse durations but
pays the full compilation latency at *every* variational iteration — the
problem partial compilation solves.

The service's ``"full-grape"`` strategy
(:class:`repro.service.strategies.FullGrapeStrategy`) runs it as a
configuration of the shared
:class:`~repro.pipeline.pipeline.CompilationPipeline`:
``bind → block → pulse → assemble+fallback``, with the pulse stage replaced
by one :class:`~repro.pipeline.scheduler.BlockScheduler` pass over the
batch.  This module folds the resulting pipeline contexts into result
records.
"""

from __future__ import annotations

from repro.core.cache import PulseCache
from repro.core.results import CompiledPulse


def result_from_context(
    method: str,
    context,
    elapsed: float,
    cache: PulseCache,
    extra_metadata: dict | None = None,
    cache_stats: dict | None = None,
) -> CompiledPulse:
    """Fold one pipeline context's outcomes into a strategy result record.

    Batch callers pass one ``cache_stats`` snapshot (in-memory counters,
    see :meth:`PulseCache.stats`) for all their contexts, so every result
    of a batch reports the same numbers.
    """
    outcomes = context.block_results
    metadata = {
        "program_fallback": context.used_fallback,
        "blocks": context.metadata["blocks"],
        "grape_blocks": sum(1 for o in outcomes if o.used_grape),
        "fallback_blocks": sum(
            1 for o in outcomes if not o.used_grape and o.iterations > 0
        ),
        "executor": context.executor_info,
        "stage_timings": context.stage_timing_dict(),
        "cache": cache_stats if cache_stats is not None else cache.stats(),
        "plan_cache": context.metadata.get("plan_cache", "miss"),
    }
    if extra_metadata:
        metadata.update(extra_metadata)
    return CompiledPulse(
        method=method,
        program=context.program,
        pulse_duration_ns=context.program.duration_ns,
        runtime_latency_s=elapsed,
        runtime_iterations=sum(o.iterations for o in outcomes),
        blocks_compiled=len(outcomes),
        cache_hits=sum(1 for o in outcomes if o.cache_hit),
        metadata=metadata,
    )
