"""Full GRAPE compilation (paper section 5).

The whole bound circuit is blocked into ≤4-qubit subcircuits, each compiled
with the minimum-time GRAPE search.  This gives the best pulse durations but
pays the full compilation latency at *every* variational iteration — the
problem partial compilation solves.

Structurally the compiler is a configuration of the shared
:class:`~repro.pipeline.pipeline.CompilationPipeline`:
``bind → block → pulse → assemble+fallback``, with the per-block GRAPE
searches dispatched through a pluggable
:class:`~repro.pipeline.executors.BlockExecutor` — they are independent, so
``executor="thread"`` / ``"process"`` compiles blocks concurrently.
"""

from __future__ import annotations

import time
from typing import Sequence

from repro.circuits.circuit import QuantumCircuit
from repro.core.cache import PulseCache
from repro.core.compiler import BlockPulseCompiler, default_device_for
from repro.core.results import CompiledPulse
from repro.pipeline.strategies import full_grape_pipeline
from repro.pulse.device import GmonDevice
from repro.pulse.grape.engine import GrapeHyperparameters, GrapeSettings
from repro.service.config import warn_deprecated


def result_from_context(
    method: str,
    context,
    elapsed: float,
    cache: PulseCache,
    extra_metadata: dict | None = None,
    cache_stats: dict | None = None,
) -> CompiledPulse:
    """Fold one pipeline context's outcomes into a strategy result record.

    Shared by :class:`FullGrapeCompiler` and the long-lived
    :class:`repro.pipeline.session.VariationalSession`, which produce the
    same pipeline contexts but own their lifecycles differently.  Batch
    callers pass one ``cache_stats`` snapshot (in-memory counters, see
    :meth:`PulseCache.stats`) for all their contexts, so every result of
    a batch reports the same numbers.
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


class _FullGrapeCompiler:
    """Out-of-the-box GRAPE over every block of the circuit."""

    method = "grape"

    def __init__(
        self,
        device: GmonDevice | None = None,
        settings: GrapeSettings | None = None,
        hyperparameters: GrapeHyperparameters | None = None,
        max_block_width: int | None = None,
        cache: PulseCache | None = None,
        executor=None,
    ):
        self.device = device
        self.settings = settings or GrapeSettings()
        self.hyperparameters = hyperparameters or GrapeHyperparameters()
        self.max_block_width = max_block_width
        self.cache = cache if cache is not None else PulseCache()
        self.executor = executor

    def compile(self, circuit: QuantumCircuit, use_cache: bool = True) -> CompiledPulse:
        """Compile a fully bound circuit with GRAPE on every block.

        With ``use_cache=False`` every block is re-optimized from scratch —
        the honest out-of-the-box latency the paper measures for full GRAPE.
        """
        device = self.device or default_device_for(circuit)
        cache = self.cache if use_cache else PulseCache()
        block_compiler = BlockPulseCompiler(
            device, self.settings, self.hyperparameters, cache
        )
        pipeline = full_grape_pipeline(
            block_compiler, self.max_block_width, self.executor
        )
        start = time.perf_counter()
        context = pipeline.run(circuit)
        elapsed = time.perf_counter() - start
        return self._result_from_context(context, elapsed, cache)

    def _result_from_context(
        self, context, elapsed: float, cache: PulseCache, extra_metadata: dict | None = None
    ) -> CompiledPulse:
        """One context's outcomes folded into the strategy's result record."""
        return result_from_context(self.method, context, elapsed, cache, extra_metadata)

    def compile_parametrized(
        self, circuit: QuantumCircuit, values: Sequence[float], use_cache: bool = False
    ) -> CompiledPulse:
        """Bind ``values`` then compile — one (expensive) variational
        iteration.  Caching defaults off: each iteration's angles are new,
        and the paper's full-GRAPE latency is the uncached cost."""
        return self.compile(circuit.bind_parameters(values), use_cache=use_cache)

    def compile_many(
        self, circuits: Sequence[QuantumCircuit], use_cache: bool = True
    ) -> list:
        """Compile a batch of bound circuits, deduplicating shared blocks.

        All circuits flow through one pipeline whose pulse stage is a
        :class:`~repro.pipeline.scheduler.BlockScheduler` pass over the
        whole batch: blocks with the same unitary fingerprint and control
        context — within one circuit or across circuits — run GRAPE exactly
        once, and every duplicate receives a retargeted copy of the shared
        pulse.  Returns one :class:`CompiledPulse` per circuit, in order;
        each result's ``metadata["scheduler"]`` carries the batch dedup
        accounting (total/unique/deduped block counts).

        The batch compiles as one unit, so per-circuit wall time does not
        exist: every result's ``runtime_latency_s`` is the *shared* batch
        wall time (also in ``metadata["batch_wall_time_s"]``) — do not sum
        it across the batch.
        """
        circuits = list(circuits)
        if not circuits:
            return []
        device = self.device or default_device_for(
            max(circuits, key=lambda c: c.num_qubits)
        )
        cache = self.cache if use_cache else PulseCache()
        block_compiler = BlockPulseCompiler(
            device, self.settings, self.hyperparameters, cache
        )
        pipeline = full_grape_pipeline(
            block_compiler, self.max_block_width, self.executor
        )
        start = time.perf_counter()
        contexts, report = pipeline.run_many(circuits)
        elapsed = time.perf_counter() - start
        batch_metadata = {
            "scheduler": report.as_dict() if report else None,
            "batch_wall_time_s": elapsed,
        }
        cache_stats = cache.stats()
        return [
            result_from_context(
                self.method, context, elapsed, cache, batch_metadata, cache_stats
            )
            for context in contexts
        ]

    def compile_parametrized_many(
        self,
        circuit: QuantumCircuit,
        values_list: Sequence[Sequence[float]],
        use_cache: bool = False,
    ) -> list:
        """Bind one ansatz at many parametrizations and batch-compile them.

        The batch scheduler makes the variational sharing explicit: blocks
        that do not depend on the parameters are identical across every
        binding and compile once for the whole batch.
        """
        return self.compile_many(
            [circuit.bind_parameters(values) for values in values_list],
            use_cache=use_cache,
        )


class FullGrapeCompiler(_FullGrapeCompiler):
    """Deprecated constructor shim for the ``"full-grape"`` service strategy.

    The implementation lives in :class:`_FullGrapeCompiler`, which the
    strategy registry serves as ``"full-grape"``; this name remains only
    so pre-service callers keep working, and emits one
    :class:`~repro.service.config.ReproDeprecationWarning` per
    construction.  Use
    ``CompilationService.compile(CompileRequest(strategy="full-grape"))``.
    """

    def __init__(self, *args, **kwargs):
        warn_deprecated("FullGrapeCompiler", "full-grape")
        super().__init__(*args, **kwargs)
