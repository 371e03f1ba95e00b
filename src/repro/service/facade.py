"""`CompilationService` — the single supported way to compile.

One service instance owns the machinery every request shares:

* one typed, immutable :class:`~repro.service.config.ServiceConfig`
  (the only consumer of the ``REPRO_*`` environment),
* one resolved block executor (the ``auto`` executor's search workers
  stay warm across every request),
* one open pulse cache (in-memory, or the sharded on-disk
  :class:`~repro.library.PulseLibrary` when ``cache_dir`` is set — the
  one store that outlives a process: a new service over the same
  directory serves every pulse compiled there before with zero GRAPE
  iterations; its memory tier is the block dedup across this service's
  requests, single-flighted while a block compiles),
* one :class:`~repro.pulse.grape.memo.GrapeRunMemo` of the flexible
  precompile's θ-independent GRAPE runs (DESIGN.md "GRAPE-run memo").

Requests are typed (:class:`~repro.service.requests.CompileRequest` in,
:class:`~repro.service.requests.CompileResult` out) and strategy dispatch
goes through the string-keyed registry, so drivers, the CLI, and any
future network frontend sit on one stable seam.

Concurrency model: ``submit()`` accepts requests from any number of
threads and strategy execution (blocking + GRAPE) runs *outside* the
service lock, so non-conflicting requests genuinely overlap.  The shared
mutable pieces each carry their own short-lived lock: the
:class:`~repro.core.cache.PulseCache` serializes its lookups, stores and
single-flight claims internally, the
:class:`~repro.pipeline.plan.PlanCache` its lookups/inserts, and
``self._lock`` shrinks to the request counters and lifecycle flags.
GRAPE is deterministic for a given (target, control context, settings),
so results stay bit-identical to a serial ``compile()`` of the same
requests — a cold race on one block can at worst duplicate work, never
change output.  See DESIGN.md "Concurrency model" for the lock-scope
table.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor

from repro.errors import PipelineError, ReproError, ServiceSaturated
from repro.service.config import ServiceConfig
from repro.service.registry import get_strategy
from repro.service.requests import CompileRequest, CompileResult


class CompilationService:
    """One typed front door over the five compilation strategies.

    Parameters
    ----------
    config:
        The service configuration; ``None`` reads the environment once via
        :meth:`ServiceConfig.from_env`.
    device:
        Optional fixed :class:`~repro.pulse.device.GmonDevice`.  ``None``
        (the default) sizes a gmon grid per request, exactly like the
        legacy compilers.
    settings / hyperparameters:
        Service-wide GRAPE defaults applied when a request leaves them
        ``None``.
    default_strategy:
        The registry key :meth:`compile_parametrized` (the
        :class:`~repro.vqe.VQEDriver` / :class:`~repro.qaoa.QAOADriver`
        compiler-hook path) uses.
    max_block_width:
        Default block width for :meth:`compile_parametrized` requests.
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        device=None,
        settings=None,
        hyperparameters=None,
        default_strategy: str = "full-grape",
        max_block_width: int | None = None,
    ):
        from repro.core.cache import PersistentPulseCache, PulseCache
        from repro.pipeline.executors import resolve_executor
        from repro.pipeline.plan import PlanCache
        from repro.pulse.grape.memo import GrapeRunMemo

        self.config = config if config is not None else ServiceConfig.from_env()
        self.device = device
        self.settings = settings
        self.hyperparameters = hyperparameters
        self.default_strategy = default_strategy
        self.max_block_width = max_block_width
        self.cache = (
            PersistentPulseCache(
                self.config.cache_dir, shards=self.config.cache_shards
            )
            if self.config.cache_dir
            else PulseCache()
        )
        self.executor = resolve_executor(self.config.executor)
        # Blocking plans keyed by ansatz content: repeated requests for one
        # symbolic circuit replay blocking instead of recomputing it.
        self.plan_cache = PlanCache()
        # Replays the flexible precompile's probe and tuning GRAPE runs.
        self.grape_memo = GrapeRunMemo()
        # Default device per circuit width (see device_for).
        self._default_devices: dict = {}
        # ``_lock`` guards only the counters and lifecycle flags; strategy
        # execution runs outside it (the pulse cache and plan cache
        # serialize themselves).  ``_idle`` lets close() wait for in-flight
        # direct compile() calls before releasing the block executor.
        self._lock = threading.RLock()
        self._idle = threading.Condition(self._lock)
        self._inflight = 0
        self._submit_pool = None
        self._submit_pool_lock = threading.Lock()
        # ``_draining`` rejects new work the moment close() starts;
        # ``_closed`` flips only after the submission pool has drained, so
        # already-accepted futures complete instead of erroring.
        self._draining = False
        self._closed = False
        self.requests_total = 0
        self.requests_by_strategy: dict = {}
        self.submitted_total = 0
        # Bounded admission: at most ``queue_depth`` submissions queued or
        # running at once; further submit() calls block until a slot
        # frees.  ``None`` admits without bound.
        self._admission = (
            threading.BoundedSemaphore(self.config.queue_depth)
            if self.config.queue_depth is not None
            else None
        )
        self.backpressure_waits = 0
        # Last, and before this service starts any thread of its own: the
        # auto executor forks its search workers here, once.
        start_workers = getattr(self.executor, "start_workers", None)
        if start_workers is not None:
            start_workers()

    # -- core API ------------------------------------------------------------
    def _begin_request(self) -> None:
        """Admit one request: reject when closed, else count it in-flight."""
        with self._lock:
            if self._closed:
                raise PipelineError("this CompilationService is closed")
            self._inflight += 1

    def _end_request(self) -> None:
        with self._lock:
            self._inflight -= 1
            if self._inflight == 0:
                self._idle.notify_all()

    def _count_requests(self, strategy_name: str, n: int = 1) -> None:
        with self._lock:
            self.requests_total += n
            self.requests_by_strategy[strategy_name] = (
                self.requests_by_strategy.get(strategy_name, 0) + n
            )

    def compile(self, request: CompileRequest) -> CompileResult:
        """Serve one request through its registered strategy.

        Thread-safe; strategy execution runs outside the service lock (see
        the module docstring), so concurrent callers overlap.
        """
        if not isinstance(request, CompileRequest):
            raise ReproError(
                f"compile() takes a CompileRequest, got {type(request).__name__}"
            )
        strategy = get_strategy(request.strategy)
        self._begin_request()
        try:
            result = strategy.compile(self, request)
            self._count_requests(request.strategy)
            return result
        finally:
            self._end_request()

    def submit(self, request: CompileRequest, block: bool = True) -> Future:
        """Enqueue one request; returns a ``concurrent.futures.Future``.

        Callable from any number of threads: all submissions share this
        service's executor and pulse cache, so concurrent
        requests reuse each other's blocks exactly as serial ones do.

        With ``queue_depth`` configured, admission is bounded: when that
        many submissions are already queued or running, this call blocks
        until one of them completes (backpressure), keeping a fast
        producer from piling unbounded work onto the service.  With
        ``block=False`` a full queue raises
        :class:`~repro.errors.ServiceSaturated` instead of waiting — the
        path the HTTP frontend turns into 429 Too Many Requests.
        """
        if not isinstance(request, CompileRequest):
            raise ReproError(
                f"submit() takes a CompileRequest, got {type(request).__name__}"
            )
        if self._admission is not None:
            # Acquire *outside* the pool lock: a blocked producer must not
            # hold up other submitters or a concurrent close().
            if not self._admission.acquire(blocking=False):
                with self._lock:
                    self.backpressure_waits += 1
                if not block:
                    raise ServiceSaturated(
                        f"submission queue is full "
                        f"({self.config.queue_depth} requests queued or "
                        "running); back off and retry"
                    )
                self._admission.acquire()
        try:
            with self._submit_pool_lock:
                if self._draining or self._closed:
                    raise PipelineError("this CompilationService is closed")
                if self._submit_pool is None:
                    self._submit_pool = ThreadPoolExecutor(
                        max_workers=self.config.submit_workers,
                        thread_name_prefix="repro-service",
                    )
                # Enqueue under the lock: a close() racing this call cannot
                # shut the pool down between the drain check and the submit,
                # so an accepted future can never hit a shut-down pool.
                future = self._submit_pool.submit(self.compile, request)
                self.submitted_total += 1
        except BaseException:
            if self._admission is not None:
                self._admission.release()
            raise
        if self._admission is not None:
            future.add_done_callback(lambda _f: self._admission.release())
        return future

    def compile_batch(self, requests) -> list:
        """Serve a batch of requests, deduplicating blocks batch-wide.

        When every request targets the same strategy and that strategy
        implements ``compile_batch`` (full GRAPE does), the whole batch
        flows through one scheduler pass — N circuits sharing a block pay
        for it once even on a cold cache.  Mixed batches fall back to
        sequential :meth:`compile` calls (which still share the service's
        cross-call state).
        """
        requests = list(requests)
        if not requests:
            return []
        names = {request.strategy for request in requests}
        if len(names) == 1:
            strategy = get_strategy(requests[0].strategy)
            batch = getattr(strategy, "compile_batch", None)
            if batch is not None:
                self._begin_request()
                try:
                    results = batch(self, requests)
                    self._count_requests(requests[0].strategy, len(requests))
                    return results
                finally:
                    self._end_request()
        return [self.compile(request) for request in requests]

    def compile_parametrized(self, circuit, values):
        """The driver compiler-hook signature: bind ``values`` and compile.

        Lets a service drop straight into
        ``VQEDriver(compiler=service)`` / ``QAOADriver(compiler=service)``;
        returns the bare :class:`~repro.core.results.CompiledPulse` the
        drivers expect.  Uses :attr:`default_strategy`.
        """
        result = self.compile(
            CompileRequest(
                circuit=circuit,
                values=list(values),
                strategy=self.default_strategy,
                max_block_width=self.max_block_width,
            )
        )
        return result.compiled

    def device_for(self, circuit):
        """The service device, or the default grid sized for ``circuit``.

        Default grids are built once per qubit count and reused by every
        later request, so their memoized channel layouts stay warm.
        """
        if self.device is not None:
            return self.device
        from repro.core.compiler import default_device_for

        with self._lock:
            device = self._default_devices.get(circuit.num_qubits)
            if device is None:
                device = default_device_for(circuit)
                self._default_devices[circuit.num_qubits] = device
        return device

    # -- telemetry -----------------------------------------------------------
    def stats(self) -> dict:
        """One report folding request, cache and executor counters."""
        from repro.pulse.grape.batched import batch_telemetry
        from repro.pulse.grape.seeding import warm_start_telemetry

        return {
            "config": self.config.as_dict(),
            "requests": {
                "total": self.requests_total,
                "submitted": self.submitted_total,
                "by_strategy": dict(self.requests_by_strategy),
                "queue_depth": self.config.queue_depth,
                "backpressure_waits": self.backpressure_waits,
            },
            "plan_cache": self.plan_cache.as_dict(),
            "grape_memo": self.grape_memo.stats(),
            # The one per-service call that sweeps the disk library.
            "cache": self.cache.stats(sweep=True),
            "executor": self.executor.describe(),
            "grape_batch": batch_telemetry(),
            "warm_start": warm_start_telemetry(),
        }

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        """Shut the service down (idempotent).

        New submissions are rejected immediately, but
        already-accepted submissions drain to completion first — a future
        returned before ``close()`` never fails just because the service
        is shutting down.  Then the block executor's workers are
        released.  The pulse cache (and its on-disk library) stays valid —
        a later service pointed at the same directory starts warm.
        """
        with self._submit_pool_lock:
            if self._draining or self._closed:
                return
            self._draining = True
            pool, self._submit_pool = self._submit_pool, None
        # Queued futures still run self.compile here: _closed is not set
        # yet, only new submissions are being refused.
        if pool is not None:
            pool.shutdown(wait=True)
        with self._lock:
            self._closed = True
            # Direct compile() callers on other threads run outside the
            # lock; wait until the last one leaves before releasing the
            # executor under their feet.
            while self._inflight:
                self._idle.wait()
        if hasattr(self.executor, "close"):
            self.executor.close()

    def __enter__(self) -> "CompilationService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"CompilationService(requests={self.requests_total}, "
            f"executor={self.executor.name!r}, "
            f"cached_blocks={len(self.cache)})"
        )
