"""Pluggable executors for independent per-block work.

Blocking partitions a circuit into subcircuits whose GRAPE searches share
nothing but the pulse cache, so they parallelize embarrassingly.  Every
executor offers an order-preserving ``map`` for closures, which keeps the
pipeline deterministic, and :meth:`BlockExecutor.run_searches` for the
pure minimum-time searches of seed-carrying
:class:`~repro.pipeline.jobs.BlockJob` descriptors.  The dispatching
process resolves cache hits and warm-start seeds before any search runs
and caches and judges the results itself, in block order
(:func:`repro.core.compiler.compile_jobs`), so no executor ever ships or
consults a pulse cache, and every executor gives the same pulses.

Choosing an executor
--------------------
GRAPE on the small blocks partial compilation produces is a few dozen
numpy calls on 4×4 matrices per iteration, so it holds the interpreter
lock: only processes overlap it.

``serial``
    The seed behavior; zero overhead, best for one block or tiny budgets.
``auto``
    Host-aware policy (the service default).  A service's ``auto``
    executor forks one search worker, once, at service construction, and
    a request with two or more cold searches runs a share of them on it
    while the calling thread runs the rest; a process limited to one CPU
    runs inline.  See :class:`AutoExecutor`.
``thread``
    ``concurrent.futures.ThreadPoolExecutor``.  Bounded by the
    interpreter lock for GRAPE (see above).
``process``
    ``concurrent.futures.ProcessPoolExecutor`` (fork start method where
    available), a fresh pool per map.  Searches ship as jobs only; each
    returns the ``repro.perf`` counts it made, recorded by the caller.
    Closures mapped here, and their results, must be picklable.
``thread-persistent`` / ``process-persistent``
    The persistent variants keep ONE pool alive across every ``map`` call
    instead of spinning a fresh pool up and down per call.  Variational
    workloads (flexible partial compilation's probes, repeated runtime
    compiles against one precompiled plan) issue many small maps, so pool
    startup — worker fork + numpy re-init for processes — used to be paid
    per iteration; now it is paid once per pipeline run.  The pool is
    created lazily on the first multi-item map (``pools_created``
    telemetry, mirrored into :func:`repro.perf.get_perf_registry`),
    released by ``close()`` or a ``with`` block, and recreated
    transparently if used again after closing.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import pickle
import threading
import weakref
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Callable, Iterable

from repro.errors import PipelineError
from repro.perf import get_perf_registry
from repro.service.config import EXECUTOR_CHOICES, ServiceConfig

#: Per-worker deserialized task function (set by the pool initializer).
_process_worker_fn = None


def _init_process_worker(payload: bytes) -> None:
    """Deserialize the mapped function once per worker process.

    Mapping the function itself would re-pickle it (and everything it
    closes over — e.g. a block compiler with its cache) once per task;
    routing it through the pool initializer ships it once per worker.
    """
    global _process_worker_fn
    _process_worker_fn = pickle.loads(payload)


def _run_process_item(item):
    return _process_worker_fn(item)


class Dispatcher:
    """Where serializable block jobs go to be compiled.

    The dispatch contract of the fleet refactor: callers hand over
    picklable :class:`~repro.pipeline.jobs.BlockJob` descriptors instead
    of closures, so implementations are free to run them in the calling
    thread, a local pool, or a different process entirely
    (:class:`repro.fleet.QueueDispatcher`).  Every in-process executor
    implements it via its own ``map``.
    """

    def dispatch_jobs(self, jobs: list, cache=None) -> list:
        """Compile every job, returning outcomes in input order.

        ``cache`` is the caller's pulse cache, shared with in-process
        runners so their hits and writes land where the caller looks;
        out-of-process dispatchers ignore it and rely on each job's
        ``cache_dir``.
        """
        raise NotImplementedError


class BlockExecutor(Dispatcher):
    """Order-preserving map over independent block tasks."""

    name = "abstract"
    #: Whether the scheduler should stack same-shape GRAPE searches into the
    #: cross-block batched kernel instead of mapping per-block tasks.  True
    #: for executors that run tasks in the calling thread (serial/auto
    #: inline): batching turns their sequential small GEMMs into big ones.
    #: False for the pool executors — stacking would serialize work the pool
    #: could genuinely overlap.
    prefers_batched = False
    #: Whether speculative feasibility-doubling probes (see
    #: :func:`repro.pulse.grape.time_search.minimum_time_pulse`) are worth
    #: their extra GRAPE iterations on this executor.
    speculation_helps = True

    def map(self, fn: Callable, items: Iterable) -> list:
        """Apply ``fn`` to every item, returning results in input order."""
        raise NotImplementedError

    def dispatch_jobs(self, jobs: list, cache) -> list:
        """Compile block jobs against ``cache``, searching through
        :meth:`run_searches`.

        Cache hits and warm-start seeds are resolved in this process
        (:func:`repro.core.compiler.compile_jobs`), so only seed-carrying
        pure searches travel — never the cache — and the results are
        cached and judged here in job order.
        """
        from repro.core.compiler import compile_jobs

        return compile_jobs(list(jobs), cache, self)

    def run_searches(self, jobs: list) -> list:
        """Run seed-carrying pure searches, results in job order.

        The searches share nothing, so they go through ``map``; in-process
        venues record their ``repro.perf`` counts directly.
        """
        from repro.core.compiler import search_job

        return self.map(search_job, jobs)

    def describe(self) -> dict:
        """Telemetry fragment identifying this executor."""
        return {"executor": self.name}


class SerialExecutor(BlockExecutor):
    """In-line execution — the seed behavior and the fallback everywhere."""

    name = "serial"
    prefers_batched = True

    def map(self, fn: Callable, items: Iterable) -> list:
        return [fn(item) for item in items]


class _PoolBlockExecutor(BlockExecutor):
    """Shared sizing logic for the pool-backed executors."""

    def __init__(self, max_workers: int | None = None):
        self.max_workers = max_workers or os.cpu_count() or 1

    def describe(self) -> dict:
        return {"executor": self.name, "max_workers": self.max_workers}

    def _workers_for(self, count: int) -> int:
        return max(1, min(self.max_workers, count))


class ThreadPoolBlockExecutor(_PoolBlockExecutor):
    """Thread-pool dispatch sharing one in-memory pulse cache."""

    name = "thread"

    def map(self, fn: Callable, items: Iterable) -> list:
        items = list(items)
        if len(items) <= 1:
            return [fn(item) for item in items]
        with ThreadPoolExecutor(max_workers=self._workers_for(len(items))) as pool:
            return list(pool.map(fn, items))


class _ProcessSearchMixin:
    """Pure searches for the process pools: their counts come home.

    A pool worker's ``repro.perf`` counts stay in the worker, so each
    search returns them and this process records them.  One search runs
    inline (the pools' ``map`` would too), where the counts land directly.
    """

    def run_searches(self, jobs: list) -> list:
        from repro.core.compiler import search_job
        from repro.pipeline.jobs import record_counts, search_block_job_counted

        jobs = list(jobs)
        if len(jobs) <= 1:
            return [search_job(job) for job in jobs]
        results = []
        for result, counts in self.map(search_block_job_counted, jobs):
            record_counts(counts)
            results.append(result)
        return results


class ProcessPoolBlockExecutor(_ProcessSearchMixin, _PoolBlockExecutor):
    """Process-pool dispatch for GIL-free parallel GRAPE."""

    name = "process"

    def map(self, fn: Callable, items: Iterable) -> list:
        items = list(items)
        if len(items) <= 1:
            return [fn(item) for item in items]
        # Fork (where available) inherits the loaded numpy state instead of
        # re-importing it per worker; spawn platforms fall back to default.
        context = None
        if "fork" in multiprocessing.get_all_start_methods():
            context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(
            max_workers=self._workers_for(len(items)),
            mp_context=context,
            initializer=_init_process_worker,
            initargs=(pickle.dumps(fn),),
        ) as pool:
            return list(pool.map(_run_process_item, items))


def _run_persistent_chunk(payload: bytes, items: list) -> list:
    """Run one interleaved chunk of a persistent-pool map in a worker.

    The handler is unpickled once per *chunk* (≤ ``max_workers`` times per
    map — the same shipping cost as the one-shot pool's initializer), not
    once per item.  No worker-side memoization: real handlers embed
    mutable state (block compilers carry pulse-cache telemetry), so their
    pickle bytes differ between maps and a digest cache would never hit.
    """
    fn = pickle.loads(payload)
    return [fn(item) for item in items]


class _PersistentPoolMixin:
    """One lazily created pool, reused across every ``map`` call.

    Subclasses provide ``_make_pool()``.  ``pools_created`` / ``map_calls``
    make the amortization checkable: a pipeline run that issues N maps must
    end with ``pools_created == 1``.
    """

    def _init_persistent(self) -> None:
        self._pool = None
        # Shared instances (see resolve_executor) may be used from several
        # threads; the lock keeps pool creation/teardown race-free so a
        # lost race can never orphan a pool of live workers.
        self._pool_lock = threading.Lock()
        self.pools_created = 0
        self.map_calls = 0

    def _ensure_pool(self):
        pool = self._pool
        if pool is None:
            with self._pool_lock:
                pool = self._pool
                if pool is None:
                    pool = self._pool = self._make_pool()
                    self.pools_created += 1
                    get_perf_registry().count(
                        f"executor.{self.name}.pools_created"
                    )
        return pool

    def close(self) -> None:
        """Shut the pool down (joins workers).  ``map`` after close re-creates.

        Idempotent and race-tolerant by design: the pool is detached under
        the lock (so concurrent/repeated ``close`` calls see ``None`` and
        no-op), and the shutdown itself is shielded — the ``atexit`` hook
        can race an explicit teardown (test teardown then interpreter
        exit), where ``Executor.shutdown`` may raise on an interpreter
        already finalizing its thread machinery.
        """
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            try:
                pool.shutdown(wait=True)
            except Exception:
                # Late-interpreter shutdown debris; the workers die with the
                # process either way, and close() must never raise.
                pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # Neither the live pool nor the lock can cross a pickle boundary (e.g.
    # an executor that ends up inside a worker payload); the receiver
    # lazily re-creates both.
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_pool"] = None
        del state["_pool_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._pool_lock = threading.Lock()

    def describe(self) -> dict:
        return {
            "executor": self.name,
            "max_workers": self.max_workers,
            "pools_created": self.pools_created,
            "map_calls": self.map_calls,
        }


class PersistentThreadPoolBlockExecutor(_PersistentPoolMixin, _PoolBlockExecutor):
    """Thread pool created once and reused across ``map`` calls."""

    name = "thread-persistent"

    def __init__(self, max_workers: int | None = None):
        super().__init__(max_workers)
        self._init_persistent()

    def _make_pool(self) -> ThreadPoolExecutor:
        return ThreadPoolExecutor(max_workers=self.max_workers)

    def map(self, fn: Callable, items: Iterable) -> list:
        items = list(items)
        self.map_calls += 1
        if len(items) <= 1:
            return [fn(item) for item in items]
        return list(self._ensure_pool().map(fn, items))


class PersistentProcessPoolBlockExecutor(
    _ProcessSearchMixin, _PersistentPoolMixin, _PoolBlockExecutor
):
    """Process pool created once and reused across ``map`` calls.

    Tasks are dispatched as up-to-``max_workers`` interleaved chunks
    (``items[j::workers]``), which balances heterogeneous block costs and
    ships (and unpickles) the map function once per chunk rather than
    once per item.  Results are reassembled in input order.
    """

    name = "process-persistent"

    def __init__(self, max_workers: int | None = None):
        super().__init__(max_workers)
        self._init_persistent()

    def _make_pool(self) -> ProcessPoolExecutor:
        context = None
        if "fork" in multiprocessing.get_all_start_methods():
            context = multiprocessing.get_context("fork")
        return ProcessPoolExecutor(max_workers=self.max_workers, mp_context=context)

    def map(self, fn: Callable, items: Iterable) -> list:
        items = list(items)
        self.map_calls += 1
        if len(items) <= 1:
            return [fn(item) for item in items]
        pool = self._ensure_pool()
        payload = pickle.dumps(fn)
        workers = self._workers_for(len(items))
        futures = [
            pool.submit(_run_persistent_chunk, payload, items[j::workers])
            for j in range(workers)
        ]
        results: list = [None] * len(items)
        for j, future in enumerate(futures):
            for offset, value in enumerate(future.result()):
                results[j + offset * workers] = value
        return results


def _search_worker_loop(conn, parent_end) -> None:
    """Body of one forked search worker.

    Answers ``"ready"`` once, then blocks on its pipe between requests —
    it never polls — and runs each share of seed-carrying jobs it
    receives, answering ``("ok", [(result, counts), ...])`` or
    ``("error", exception)``.  ``None`` or a closed pipe ends it.
    """
    import signal

    import numpy as np

    from repro.pipeline.jobs import search_block_job_counted

    # Only the parent's copy of the parent end may keep the pipe open.
    parent_end.close()
    # Ctrl-C belongs to the parent, which stops its worker on close().
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # Touch the linear algebra GRAPE uses before reporting ready: a lock
    # another parent thread held at fork time hangs the child here, where
    # the parent's start-up handshake catches it, not inside a request.
    np.linalg.eigh(np.eye(4))
    np.eye(4) @ np.eye(4)
    conn.send("ready")
    while True:
        try:
            jobs = conn.recv()
        except (EOFError, OSError):
            return
        if jobs is None:
            return
        try:
            reply = ("ok", [search_block_job_counted(job) for job in jobs])
        except Exception as exc:
            reply = ("error", exc)
        try:
            conn.send(reply)
        except (OSError, ValueError):
            return
        except Exception as exc:
            # The exception itself would not pickle.
            conn.send(("error", PipelineError(f"search worker failed: {exc!r}")))


class _SearchWorker:
    """One forked process serving pure searches over a private pipe.

    ``busy`` is held by the one request using the worker; ``alive`` drops
    for good the first time the pipe fails, and a dead worker is never
    re-forked.
    """

    def __init__(self, context):
        parent_end, child_end = context.Pipe()
        self.process = context.Process(
            target=_search_worker_loop,
            args=(child_end, parent_end),
            name="repro-search-worker",
            daemon=True,
        )
        self.process.start()
        child_end.close()
        self.conn = parent_end
        self.busy = threading.Lock()
        self.alive = True

    def ready(self, timeout_s: float = 10.0) -> bool:
        """Wait for the start-up handshake; a worker that misses it is
        killed."""
        try:
            if self.conn.poll(timeout_s) and self.conn.recv() == "ready":
                return True
        except (EOFError, OSError):
            pass
        self.alive = False
        self.stop(timeout_s=0)
        return False

    def send(self, jobs: list) -> bool:
        """Hand over one share; ``False`` if the worker is gone."""
        try:
            self.conn.send(jobs)
        except (OSError, ValueError):
            self.alive = False
            return False
        return True

    def receive(self):
        """The share's ``(result, counts)`` replies, or ``None`` if the
        worker died; re-raises an exception the search raised."""
        try:
            status, payload = self.conn.recv()
        except (EOFError, OSError):
            self.alive = False
            return None
        if status == "error":
            raise payload
        return payload

    def stop(self, timeout_s: float = 5.0) -> None:
        """Ask the worker to exit, close the pipe and reap the process."""
        try:
            self.conn.send(None)
        except (OSError, ValueError):
            pass
        self.conn.close()
        self.process.join(timeout_s)
        if self.process.is_alive():
            self.process.kill()
            self.process.join()


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one (a container pinned to 2 of 64 cores gets 2), else
    the host's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _search_cost(job) -> int:
    """Relative cost of one search, for splitting a request's searches:
    the step count it starts from (the seed's, else the gate-based
    bound's)."""
    if job.seed is not None:
        return job.seed.controls.shape[1]
    dt = job.settings.resolved_dt()
    return max(1, int(round(max(job.gate_based_ns, dt) / dt)))


def _split_searches(jobs: list) -> tuple:
    """``(own, worker's)`` job indices: longest-first onto the
    less-loaded side, ties to the calling thread.  Deterministic, so one
    request sequence always splits the same way."""
    sides: tuple = ([], [])
    loads = [0, 0]
    for i in sorted(range(len(jobs)), key=lambda i: (-_search_cost(jobs[i]), i)):
        side = 0 if loads[0] <= loads[1] else 1
        sides[side].append(i)
        loads[side] += _search_cost(jobs[i])
    return sorted(sides[0]), sorted(sides[1])


class AutoExecutor(BlockExecutor):
    """Host-aware dispatch policy: inline, a forked search worker, or a pool.

    GRAPE on small blocks holds the interpreter lock (see the module
    docstring), so ``auto`` overlaps a request's block searches only
    through a process forked once and kept:

    * :meth:`start_worker` forks ONE search worker when this process may
      run on at least two CPUs (its affinity mask, not the host's count)
      and ``fork`` exists; ``max_workers`` does not size it.
      :class:`~repro.service.CompilationService` calls it in its
      constructor, before it starts any thread of its own: a fork from a
      request thread while another runs GRAPE can hang the child.
      :meth:`close` reaps it.  One worker is the measured configuration
      (a 2-CPU host); more would need a measured larger host first.
    * :meth:`run_searches` gets a request's cold searches as seed-carrying
      :class:`~repro.pipeline.jobs.BlockJob` descriptors.  With at least
      two, the calling thread claims the idle worker, writes it its share
      (longest-first by starting step count) down its pipe, runs the rest
      itself and collects the replies with their ``repro.perf`` counts;
      no helper thread sits on this path.  A worker busy with a
      concurrent request is skipped.  A dead one is dropped for good and
      its share runs inline, counted in ``worker_fallbacks``.  Results
      are bit-identical to the inline searches.
    * On ``cpu_count() <= 2`` the scheduler is told to prefer
      :meth:`~repro.core.compiler.BlockPulseCompiler.compile_blocks_batched`
      and speculative time-search probes are declined: they pay only when
      cores are free.  Larger hosts take the job route
      (:meth:`~BlockExecutor.dispatch_jobs`).  Both routes send their
      searches here.
    * Closure maps (parametrized blocks, plan entries) run inline; on
      larger hosts maps of ≥3 items delegate to the shared
      ``thread-persistent`` pool.  Without ``max_workers`` its grant
      starts small and doubles toward ``min(cpu_count, largest map)``.
    """

    name = "auto"

    #: First worker grant on a delegating host (before demand is observed).
    INITIAL_GRANT = 4

    def __init__(self, max_workers: int | None = None):
        self.max_workers = max_workers
        self.cpu_count = os.cpu_count() or 1
        self.prefers_inline = self.cpu_count <= 2
        self.prefers_batched = self.prefers_inline
        self.speculation_helps = not self.prefers_inline
        self.inline_maps = 0
        self.delegated_maps = 0
        self.largest_map = 0
        self.granted_workers = max_workers
        self.pool_growths = 0
        self._worker = None
        self._worker_started = False
        self._stop = None
        self._stats_lock = threading.Lock()
        self.worker_searches = 0
        self.inline_searches = 0
        self.worker_fallbacks = 0

    # -- search worker -----------------------------------------------------
    def start_worker(self) -> bool:
        """Fork the search worker, once per executor; whether one runs.

        Call before the process starts threads that could hold locks the
        child needs.  A closed executor, or one whose worker died, forks
        nothing again.
        """
        if self._worker_started:
            return self._worker is not None
        self._worker_started = True
        if _usable_cpus() < 2 or "fork" not in multiprocessing.get_all_start_methods():
            return False
        # The child runs these; importing them now keeps it off the
        # import machinery.
        import repro.core.compiler  # noqa: F401
        import repro.pipeline.jobs  # noqa: F401

        worker = _SearchWorker(multiprocessing.get_context("fork"))
        if not worker.ready():
            return False
        self._worker = worker
        # A service dropped without close() still reaps its worker.
        self._stop = weakref.finalize(self, worker.stop)
        return True

    def _claim_worker(self):
        """The idle live worker, now held by the caller, or ``None``."""
        worker = self._worker
        if worker is not None and worker.alive and worker.busy.acquire(blocking=False):
            return worker
        return None

    def _release_worker(self, worker) -> None:
        if not worker.alive:
            # Dropped before ``busy`` frees, so no other request claims it.
            self._worker = None
            self._stop()
        worker.busy.release()

    def run_searches(self, jobs: list) -> list:
        """Run a request's pure searches on the idle worker and here."""
        from repro.core.compiler import search_job
        from repro.pipeline.jobs import record_counts

        jobs = list(jobs)
        worker = self._claim_worker() if len(jobs) > 1 else None
        if worker is None:
            with self._stats_lock:
                self.inline_searches += len(jobs)
            return [search_job(job) for job in jobs]
        results: list = [None] * len(jobs)
        own, share = _split_searches(jobs)
        replies = None
        in_flight = False
        try:
            in_flight = worker.send([jobs[i] for i in share])
            for i in own:
                results[i] = search_job(jobs[i])
            if in_flight:
                in_flight = False
                replies = worker.receive()
        finally:
            if in_flight:
                # A search here raised: drain the worker's reply so the
                # next request never reads this one's.
                try:
                    worker.receive()
                except Exception:
                    pass
            self._release_worker(worker)
        if replies is None:
            # The worker died: its share runs here.
            for i in share:
                results[i] = search_job(jobs[i])
        else:
            for i, (result, counts) in zip(share, replies):
                record_counts(counts)
                results[i] = result
        with self._stats_lock:
            if replies is None:
                self.worker_fallbacks += 1
                self.inline_searches += len(jobs)
            else:
                self.inline_searches += len(own)
                self.worker_searches += len(share)
        return results

    def close(self) -> None:
        """Stop and reap the search worker (idempotent); searches then
        run inline."""
        self._worker = None
        if self._stop is not None:
            self._stop()

    def __getstate__(self) -> dict:
        # The worker and the locks stay with the process that forked it.
        state = self.__dict__.copy()
        state.update(_worker=None, _stop=None, _worker_started=True)
        del state["_stats_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._stats_lock = threading.Lock()

    # -- closure maps ------------------------------------------------------
    def _grown_workers(self, count: int) -> int:
        """The worker grant for a delegated map of ``count`` items."""
        if self.max_workers is not None:
            return self.max_workers
        self.largest_map = max(self.largest_map, count)
        target = min(self.cpu_count, self.largest_map)
        granted = self.granted_workers or min(self.INITIAL_GRANT, self.cpu_count)
        while granted < target:
            granted = min(granted * 2, self.cpu_count)
            self.pool_growths += 1
        self.granted_workers = granted
        return granted

    def map(self, fn: Callable, items: Iterable) -> list:
        items = list(items)
        if self.prefers_inline or len(items) < 3:
            self.inline_maps += 1
            return [fn(item) for item in items]
        self.delegated_maps += 1
        workers = self._grown_workers(len(items))
        return resolve_executor("thread-persistent", workers).map(fn, items)

    def describe(self) -> dict:
        return {
            "executor": self.name,
            "cpu_count": self.cpu_count,
            "mode": "inline" if self.prefers_inline else "thread-persistent",
            "inline_maps": self.inline_maps,
            "delegated_maps": self.delegated_maps,
            "granted_workers": self.granted_workers,
            "largest_map": self.largest_map,
            "pool_growths": self.pool_growths,
            "search_workers": int(self._worker is not None),
            "worker_searches": self.worker_searches,
            "inline_searches": self.inline_searches,
            "worker_fallbacks": self.worker_fallbacks,
        }


#: Process-wide persistent executors, keyed by (name, resolved workers).
#: Compilers re-resolve their executor spec on every ``compile`` call, so
#: persistent executors named by string / ``REPRO_EXECUTOR`` must resolve
#: to ONE shared instance — otherwise each variational iteration would
#: build (and leak) a fresh pool, defeating the amortization entirely.
_persistent_executors: dict = {}
_persistent_registry_lock = threading.Lock()
_PERSISTENT_CLASSES = {
    "thread-persistent": PersistentThreadPoolBlockExecutor,
    "process-persistent": PersistentProcessPoolBlockExecutor,
}


def persistent_executor_stats() -> list:
    """Telemetry for every shared persistent pool created so far.

    One ``describe()`` dict per registered executor (``pools_created`` /
    ``map_calls`` included), so CLI surfaces like ``cache-stats`` can show
    how well the pool amortization is working process-wide.
    """
    with _persistent_registry_lock:
        return [executor.describe() for executor in _persistent_executors.values()]


def shutdown_persistent_executors() -> None:
    """Close every shared persistent pool (they revive lazily if reused).

    Registered via ``atexit`` so named pools never outlive the process
    uncleanly; callers managing their own lifecycle can invoke it earlier.
    Idempotent: calling it twice (test teardown, then the ``atexit`` hook
    at interpreter exit) finds already-closed pools and does nothing, and
    one failing close never prevents the remaining pools from shutting
    down.
    """
    with _persistent_registry_lock:
        executors = list(_persistent_executors.values())
    for executor in executors:
        try:
            executor.close()
        except Exception:
            # close() itself shields shutdown errors; this guards against
            # exotic subclasses so the sweep always reaches every pool.
            pass


atexit.register(shutdown_persistent_executors)


def resolve_executor(
    spec: str | BlockExecutor | None = None, max_workers: int | None = None
) -> BlockExecutor:
    """Turn an executor spec into an executor instance.

    ``spec`` may be an executor instance (returned as-is), one of the names
    in :data:`repro.config.EXECUTOR_CHOICES`, or ``None`` for the
    :class:`~repro.service.ServiceConfig` default, ``"auto"``.
    ``max_workers=None`` means ``os.cpu_count()``.  The stateless names
    resolve to fresh instances; the ``*-persistent`` names resolve to one
    shared instance per (name, worker count) so the pool survives — and
    amortizes across — repeated ``compile`` calls.
    """
    if isinstance(spec, BlockExecutor):
        return spec
    if spec is None:
        spec = ServiceConfig.executor
    if spec == "serial":
        return SerialExecutor()
    if spec == "auto":
        return AutoExecutor(max_workers)
    if spec == "thread":
        return ThreadPoolBlockExecutor(max_workers)
    if spec == "process":
        return ProcessPoolBlockExecutor(max_workers)
    if spec in _PERSISTENT_CLASSES:
        # Normalize the worker count before keying: ``None`` means the CPU
        # count, so an explicit request for that same count aliases the
        # same pool.
        workers = max_workers or os.cpu_count() or 1
        key = (spec, workers)
        with _persistent_registry_lock:
            executor = _persistent_executors.get(key)
            if executor is None:
                executor = _PERSISTENT_CLASSES[spec](workers)
                _persistent_executors[key] = executor
        return executor
    raise PipelineError(
        f"unknown executor {spec!r}; available: {EXECUTOR_CHOICES}"
    )
