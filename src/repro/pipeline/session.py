"""Long-lived compilation sessions for variational workloads.

The paper's whole premise is that a variational driver recompiles *the
same ansatz* at every optimizer iteration.  :class:`BlockScheduler` dedups
blocks within one batch, but a fresh scheduler per ``compile`` call forgets
everything between iterations — exactly the reuse a VQE loop lives on.

:class:`VariationalSession` is the streaming counterpart: one long-lived
object owning one scheduler (with persistent
:class:`~repro.pipeline.scheduler.SchedulerState`), one block executor,
and one open pulse cache (in practice a
:class:`~repro.core.cache.PersistentPulseCache` over a sharded
:class:`~repro.library.PulseLibrary`).  Successive ``compile`` /
``compile_batch`` calls share dedup state, so iteration N+1 dispatches
GRAPE only for blocks the whole session has never seen — the θ-independent
bulk of a UCCSD ansatz compiles exactly once per *run*, not once per
iteration.

Usage::

    with VariationalSession(settings=settings) as session:
        for values in optimizer:
            compiled = session.compile_parametrized(ansatz, values)

A session also plugs straight into :class:`repro.vqe.VQEDriver` as its
``compiler`` hook (it exposes ``compile_parametrized``), which is how the
aggregate-latency experiments run their optimizer loop through one
session.
"""

from __future__ import annotations

import time
from typing import Sequence

from repro.circuits.circuit import QuantumCircuit
from repro.errors import PipelineError
from repro.perf import get_perf_registry
from repro.pipeline.executors import resolve_executor
from repro.pipeline.plan import PlanCache
from repro.pipeline.scheduler import SchedulerState
from repro.pipeline.strategies import full_grape_pipeline


class VariationalSession:
    """One scheduler, one executor, one open cache — across many compiles.

    Parameters mirror :class:`repro.core.FullGrapeCompiler`; ``device``
    defaults to a grid sized for the widest circuit seen so far (the
    pipeline is rebuilt if a wider circuit arrives, while the cache and the
    dedup state persist — their keys embed the physical control context, so
    stale reuse across device changes is impossible by construction).
    """

    method = "session"

    def __init__(
        self,
        device=None,
        settings=None,
        hyperparameters=None,
        max_block_width: int | None = None,
        cache=None,
        executor=None,
    ):
        from repro.core.cache import PulseCache
        from repro.pulse.grape.engine import GrapeHyperparameters, GrapeSettings

        self.settings = settings or GrapeSettings()
        self.hyperparameters = hyperparameters or GrapeHyperparameters()
        self.max_block_width = max_block_width
        self.cache = cache if cache is not None else PulseCache()
        self.executor = resolve_executor(executor)
        self.state = SchedulerState()
        # Blocking plans keyed by ansatz content: iteration N ≥ 2 of a
        # variational loop replays blocking instead of recomputing it.
        # Plan keys embed the device token, so the cache survives device
        # growth — stale plans simply stop hitting.
        self.plan_cache = PlanCache()
        self.compile_calls = 0
        self.circuits_compiled = 0
        self.total_blocks = 0
        self.dispatched_blocks = 0
        self.deduped_blocks = 0
        self.reused_blocks = 0
        self.batched_blocks = 0
        self._device = device
        self._explicit_device = device is not None
        self._block_compiler = None
        self._pipeline = None
        self._closed = False

    @property
    def device(self):
        return self._device

    @property
    def library(self):
        """The open :class:`~repro.library.PulseLibrary` (``None`` when the
        session's cache has no disk tier)."""
        return getattr(self.cache, "library", None)

    # -- plumbing ----------------------------------------------------------
    def _ensure_pipeline(self, circuits: Sequence[QuantumCircuit]) -> None:
        from repro.core.compiler import BlockPulseCompiler
        from repro.pulse.device import GmonDevice

        width = max(circuit.num_qubits for circuit in circuits)
        if self._device is None or (
            not self._explicit_device and self._device.num_qubits < width
        ):
            self._device = GmonDevice.grid_for(width)
            self._block_compiler = None
        if self._block_compiler is None:
            self._block_compiler = BlockPulseCompiler(
                self._device, self.settings, self.hyperparameters, self.cache
            )
            self._pipeline = full_grape_pipeline(
                self._block_compiler, self.max_block_width, self.executor
            )

    # -- compilation -------------------------------------------------------
    def compile_batch(self, circuits, values=None) -> list:
        """Compile a batch of circuits, reusing every block the session has
        ever compiled.

        Returns one :class:`~repro.core.results.CompiledPulse` per circuit,
        in order.  Each result's ``metadata["scheduler"]`` carries the batch
        accounting (``reused_blocks`` counts blocks served from earlier
        calls) and ``metadata["session"]`` the session-lifetime counters.
        As with :meth:`repro.core.FullGrapeCompiler.compile_many`, the
        batch compiles as one unit: ``runtime_latency_s`` is the shared
        batch wall time, not a per-circuit cost.
        """
        from repro.core.full_grape import result_from_context

        if self._closed:
            raise PipelineError("this VariationalSession is closed")
        circuits = list(circuits)
        if not circuits:
            return []
        self._ensure_pipeline(circuits)
        start = time.perf_counter()
        contexts, report = self._pipeline.run_many(
            circuits,
            values,
            state=self.state,
            plan_cache=self.plan_cache,
            plan_scope=self.method,
        )
        elapsed = time.perf_counter() - start
        self.compile_calls += 1
        self.circuits_compiled += len(circuits)
        if report is not None:
            self.total_blocks += report.total_blocks
            self.dispatched_blocks += report.dispatched_tasks
            self.deduped_blocks += report.deduped_blocks
            self.reused_blocks += report.reused_blocks
            self.batched_blocks += report.batched_blocks
        get_perf_registry().count("session.compile_calls")
        extra = {
            "scheduler": report.as_dict() if report is not None else None,
            "session": self.state.as_dict(),
            "batch_wall_time_s": elapsed,
        }
        # One counters snapshot shared by every result of the batch.
        cache_stats = self.cache.stats()
        return [
            result_from_context(
                self.method, context, elapsed, self.cache, extra, cache_stats
            )
            for context in contexts
        ]

    def compile(self, circuit: QuantumCircuit, values=None):
        """Compile one circuit (one variational iteration) through the
        session's shared scheduler state."""
        return self.compile_batch([circuit], [values])[0]

    def compile_parametrized(self, circuit: QuantumCircuit, values: Sequence[float]):
        """Bind ``values`` and compile — the :class:`repro.vqe.VQEDriver`
        compiler-hook signature, so a session drops into the VQE loop
        directly."""
        return self.compile(circuit, list(values))

    # -- lifecycle ---------------------------------------------------------
    def reset(self) -> None:
        """Forget the cross-call dedup state (the cache is untouched)."""
        self.state.clear()

    def stats(self) -> dict:
        """Session-lifetime telemetry: reuse counters, cache, executor."""
        return {
            "method": self.method,
            "compile_calls": self.compile_calls,
            "circuits_compiled": self.circuits_compiled,
            "total_blocks": self.total_blocks,
            "dispatched_blocks": self.dispatched_blocks,
            "deduped_blocks": self.deduped_blocks,
            "reused_blocks": self.reused_blocks,
            "batched_blocks": self.batched_blocks,
            "known_blocks": len(self.state),
            "plan_cache": self.plan_cache.as_dict(),
            "cache": self.cache.stats(),
            "executor": self.executor.describe(),
        }

    def close(self) -> None:
        """End the session: release the executor's workers (idempotent).

        The cache (and its on-disk library) stays valid — a later session
        pointed at the same directory starts warm.
        """
        if self._closed:
            return
        self._closed = True
        if hasattr(self.executor, "close"):
            self.executor.close()

    def __enter__(self) -> "VariationalSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"VariationalSession(compile_calls={self.compile_calls}, "
            f"known_blocks={len(self.state)}, reused_blocks={self.reused_blocks})"
        )
