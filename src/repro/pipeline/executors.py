"""Pluggable executors for independent per-block work.

Blocking partitions a circuit into subcircuits whose GRAPE searches share
nothing but the pulse cache, so they parallelize embarrassingly.  Every
executor offers an order-preserving ``map`` for closures, which keeps the
pipeline deterministic, and :meth:`BlockExecutor.run_tasks` for pure
tasks: a picklable function over picklable items that reads nothing but
its item.  Two callers use it: the minimum-time searches of
seed-carrying :class:`~repro.pipeline.jobs.BlockJob` descriptors
(:func:`repro.core.compiler.search_job`), and the flexible runtime's
per-θ GRAPE runs (:meth:`repro.core.flexible._FlexiblePartialCompiler
.compile`).  The dispatching process resolves cache hits and warm-start
seeds before any search runs and caches and judges the results itself,
in block order (:func:`repro.core.compiler.compile_jobs`), so no
executor ever ships or consults a pulse cache, and every executor gives
the same pulses.

Choosing an executor
--------------------
GRAPE on the small blocks partial compilation produces is a few dozen
numpy calls on 4×4 matrices per iteration, so it holds the interpreter
lock: only processes overlap it.

``serial``
    Everything runs in the calling thread.
``auto``
    The service default.  It runs in the calling thread too, except that a
    service's ``auto`` executor forks a pool of :data:`SEARCH_WORKERS`
    search workers, once, at service construction, when the process may
    use two or more CPUs.  A request alone in :meth:`~AutoExecutor.run_tasks` with two or
    more pure tasks (cold block searches, flexible runtime entries)
    shares them with one idle worker; a request that overlaps another
    hands its whole task list to an idle worker.  See
    :class:`AutoExecutor`.

Both prefer the scheduler's cross-block batched route
(:meth:`~repro.core.compiler.BlockPulseCompiler.compile_blocks_batched`).
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import weakref
from typing import Callable, Iterable

from repro.errors import PipelineError
from repro.service.config import EXECUTOR_CHOICES, ServiceConfig


class BlockExecutor:
    """Order-preserving map over independent block tasks."""

    name = "abstract"
    #: Whether the scheduler should stack same-shape GRAPE searches into the
    #: cross-block batched kernel instead of mapping per-block tasks.  True
    #: for executors that run tasks in the calling thread (serial, auto):
    #: batching turns their sequential small GEMMs into big ones.  False
    #: for an executor whose ``map`` genuinely overlaps tasks — stacking
    #: would serialize them.
    prefers_batched = False

    def map(self, fn: Callable, items: Iterable) -> list:
        """Apply ``fn`` to every item, returning results in input order."""
        raise NotImplementedError

    def run_tasks(self, fn: Callable, items: Iterable) -> list:
        """Apply the pure, picklable ``fn`` to every picklable item,
        results in input order.

        The tasks share nothing, so they go through ``map`` — inline for
        ``serial``, which records their ``repro.perf`` counts directly.
        Venues in other processes ship the counts back with the results.
        """
        return self.map(fn, items)

    def describe(self) -> dict:
        """Telemetry fragment identifying this executor."""
        return {"executor": self.name}


class SerialExecutor(BlockExecutor):
    """In-line execution — the fallback everywhere."""

    name = "serial"
    prefers_batched = True

    def map(self, fn: Callable, items: Iterable) -> list:
        return [fn(item) for item in items]


def _claim(next_index) -> int:
    """Take the next unclaimed index from the shared counter; one past
    the last task or more means every index is taken."""
    with next_index.get_lock():
        index = next_index.value
        next_index.value = index + 1
    return index


def _exhaust(next_index, n: int) -> None:
    """Leave no index below ``n`` to claim, so the other side stops after
    the task it is running."""
    with next_index.get_lock():
        next_index.value = max(next_index.value, n)


def _search_worker_loop(conn, parent_ends, next_index) -> None:
    """Body of one forked search worker.

    Answers ``"ready"`` once, then blocks on its pipe between requests —
    it never polls.  Each request is a share ``(fn, items, preset)``: the
    worker makes ``preset`` active, claims indices from ``next_index``
    (shared with the caller, who may claim from it too) until none is
    left, and answers ``("ok", [(index, result), ...], counts)`` —
    ``counts`` are the ``repro.perf`` counters its tasks moved — or
    ``("error", exception)``.  ``None`` or a closed pipe ends it.
    """
    import signal

    import numpy as np

    from repro.config import get_preset, set_preset
    from repro.perf import get_perf_registry

    # Only the parent's copies of the parent ends (its own pipe's and
    # those of workers forked before it) may keep those pipes open.
    for parent_end in parent_ends:
        parent_end.close()
    # Ctrl-C belongs to the parent, which stops its worker on close().
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # Touch the linear algebra GRAPE uses before reporting ready: a lock
    # another parent thread held at fork time hangs the child here, where
    # the parent's start-up handshake catches it, not inside a request.
    np.linalg.eigh(np.eye(4))
    np.eye(4) @ np.eye(4)
    conn.send("ready")
    perf = get_perf_registry()
    while True:
        try:
            share = conn.recv()
        except (EOFError, OSError):
            return
        if share is None:
            return
        fn, items, preset = share
        try:
            # Settings that defer to the preset (``dt_ns=None``, …)
            # resolve as they would in the dispatching process.
            if get_preset().name != preset:
                set_preset(preset)
            done = []
            with perf.counts_moved() as counts:
                while (index := _claim(next_index)) < len(items):
                    done.append((index, fn(items[index])))
            reply = ("ok", done, counts)
        except Exception as exc:
            _exhaust(next_index, len(items))
            reply = ("error", exc)
        try:
            conn.send(reply)
        except (OSError, ValueError):
            return
        except Exception as exc:
            # The exception itself would not pickle.
            conn.send(("error", PipelineError(f"search worker failed: {exc!r}")))


class _SearchWorker:
    """One forked process serving pure tasks over a private pipe.

    ``next_index`` is the index counter the caller and the worker claim
    tasks from; it lives in shared memory made before the fork.  ``busy``
    is held by the one request using the worker; ``alive`` drops for good
    the first time the pipe fails, and a dead worker is never re-forked.
    ``siblings`` are the workers forked before this one: the child closes
    its inherited copies of their pipes.
    """

    def __init__(self, context, siblings=()):
        parent_end, child_end = context.Pipe()
        self.next_index = context.Value("q", 0)
        self.process = context.Process(
            target=_search_worker_loop,
            args=(
                child_end,
                [parent_end, *(sibling.conn for sibling in siblings)],
                self.next_index,
            ),
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

    def send(self, share: tuple) -> bool:
        """Hand over one share; ``False`` if the worker is gone."""
        try:
            self.conn.send(share)
        except (OSError, ValueError):
            self.alive = False
            return False
        return True

    def receive(self):
        """The share's ``(done, counts)`` reply, or ``None`` if the worker
        died; re-raises an exception a task raised."""
        try:
            reply = self.conn.recv()
        except (EOFError, OSError):
            self.alive = False
            return None
        if reply[0] == "error":
            raise reply[1]
        return reply[1:]

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


#: The search-worker pool's size where the process may use two or more
#: CPUs.  Only 2-CPU hosts are measured; a larger pool waits for a
#: measured run on a host with 4 or more.
SEARCH_WORKERS = 2


def _stop_workers(workers) -> None:
    """Stop and reap every worker in ``workers``; a stopped one is a no-op."""
    for worker in workers:
        worker.stop()


class AutoExecutor(SerialExecutor):
    """Inline dispatch plus, where a second CPU exists, a pool of
    :data:`SEARCH_WORKERS` forked search workers.

    GRAPE on small blocks holds the interpreter lock (see the module
    docstring), so ``auto`` overlaps pure tasks only through processes
    forked once and kept.  Everything else is :class:`SerialExecutor`:
    closure maps run inline and the scheduler prefers
    :meth:`~repro.core.compiler.BlockPulseCompiler.compile_blocks_batched`,
    on every host.

    * :meth:`start_workers` forks :data:`SEARCH_WORKERS` search workers
      when this process may run on at least two CPUs (its affinity mask,
      not the host's count) and ``fork`` exists: every fork first, then
      every start-up handshake, so start-up waits about one fork, not one
      per worker.  :class:`~repro.service.CompilationService` calls it in its
      constructor, before it starts any thread of its own: a fork from a
      request thread while another runs GRAPE can hang the child.
      :meth:`close` reaps them.
    * :meth:`run_tasks` gets a request's pure tasks: cold block searches
      as seed-carrying :class:`~repro.pipeline.jobs.BlockJob` descriptors,
      or the flexible runtime's per-θ plan entries.  A request alone in
      ``run_tasks`` with at least two claims one idle worker and writes
      it the task list with this process's preset down its pipe.  Then
      both sides claim the next unclaimed index from that worker's shared
      counter until none is left, so whichever side finishes a task first
      takes the next one.  Index 0 is the calling thread's, so the
      calling thread's traced entry points always record calls.  A
      request that enters while another is in ``run_tasks`` instead
      hands its whole task list, even one task, to an idle worker and
      blocks on that worker's pipe, so two requests never run GRAPE
      under one interpreter lock; ``handoffs`` counts these.  The caller
      collects the worker's results with their ``repro.perf`` counts; no
      helper thread sits on this path.  A task raising here exhausts the
      counter, so the worker stops after its current task.  With no idle
      worker every task runs inline.  A dead worker is dropped alone for
      good and its unfinished indices run inline, counted once in
      ``worker_fallbacks``; the other workers keep serving.  Results are
      bit-identical to inline runs.  ``worker_searches`` and
      ``inline_searches`` count the tasks each side ran, flexible runtime
      entries included.
    """

    name = "auto"

    def __init__(self):
        self._workers: list = []
        self._workers_started = False
        self._stop = None
        self._stats_lock = threading.Lock()
        # Requests inside run_tasks now: a request that finds another
        # there hands its tasks off whole.
        self._running = 0
        self.worker_searches = 0
        self.inline_searches = 0
        self.worker_fallbacks = 0
        self.handoffs = 0

    # -- search workers ----------------------------------------------------
    def start_workers(self) -> int:
        """Fork the search workers, once per executor; how many run.

        Call before the process starts threads that could hold locks the
        children need.  A closed executor forks nothing again, and a dead
        worker is never re-forked.
        """
        if self._workers_started:
            return len(self._workers)
        self._workers_started = True
        if _usable_cpus() < 2 or (
            "fork" not in multiprocessing.get_all_start_methods()
        ):
            return 0
        # The children run these; importing them now keeps them off the
        # import machinery.
        import repro.core.compiler  # noqa: F401
        import repro.core.flexible  # noqa: F401
        import repro.pipeline.jobs  # noqa: F401

        context = multiprocessing.get_context("fork")
        forked: list = []
        # A service dropped without close() still reaps its workers, and
        # a fork that fails part-way reaps those forked before it.
        self._stop = weakref.finalize(self, _stop_workers, forked)
        for _ in range(SEARCH_WORKERS):
            forked.append(_SearchWorker(context, siblings=forked))
        self._workers = [worker for worker in forked if worker.ready()]
        return len(self._workers)

    def _claim_worker(self):
        """An idle live worker, now held by the caller, or ``None``."""
        for worker in self._workers:
            if worker.alive and worker.busy.acquire(blocking=False):
                if worker.alive:
                    return worker
                worker.busy.release()
        return None

    def _release_worker(self, worker) -> None:
        if not worker.alive:
            # Dropped before ``busy`` frees, so no other request claims it.
            with self._stats_lock:
                self._workers = [w for w in self._workers if w is not worker]
            worker.stop()
        worker.busy.release()

    def run_tasks(self, fn: Callable, items: Iterable) -> list:
        """Run a request's pure tasks here and on idle workers."""
        items = list(items)
        with self._stats_lock:
            handoff = self._running > 0
            self._running += 1
        try:
            # Alone, a single task runs inline; overlapping, even one
            # task travels.
            worker = None
            if len(items) > 1 or (handoff and items):
                worker = self._claim_worker()
            if worker is None:
                with self._stats_lock:
                    self.inline_searches += len(items)
                return [fn(item) for item in items]
            return self._share(worker, fn, items, handoff)
        finally:
            with self._stats_lock:
                self._running -= 1

    def _share(self, worker, fn: Callable, items: list, handoff: bool) -> list:
        """Run ``items`` with the claimed ``worker``: all of them there when
        ``handoff``, else index 0 here and each later index on whichever
        side claims it first."""
        from repro.config import get_preset
        from repro.perf import get_perf_registry

        n = len(items)
        first = 0 if handoff else 1  # the worker's first claimable index
        results: list = [None] * n
        own = []
        reply = None
        in_flight = False
        try:
            worker.next_index.value = first
            # Indices the worker never runs do not travel.
            shipped = [None] * first + items[first:]
            in_flight = worker.send((fn, shipped, get_preset().name))
            if not handoff:
                index = 0
                while index < n:
                    results[index] = fn(items[index])
                    own.append(index)
                    index = _claim(worker.next_index)
            if in_flight:
                in_flight = False
                reply = worker.receive()
        finally:
            if in_flight:
                # A task here raised: stop the worker early and drain its
                # reply so the next request never reads this one's.
                _exhaust(worker.next_index, n)
                try:
                    worker.receive()
                except Exception:
                    pass
            self._release_worker(worker)
        shared = 0
        if reply is None:
            # The worker died: whatever it had not returned runs here.
            for index in sorted(set(range(n)) - set(own)):
                results[index] = fn(items[index])
        else:
            done, counts = reply
            get_perf_registry().add_counts(counts)
            for index, result in done:
                results[index] = result
            shared = len(done)
        with self._stats_lock:
            self.handoffs += handoff
            self.worker_fallbacks += reply is None
            self.inline_searches += n - shared
            self.worker_searches += shared
        return results

    def close(self) -> None:
        """Stop and reap the search workers (idempotent); tasks then run
        inline."""
        self._workers = []
        if self._stop is not None:
            self._stop()

    def __getstate__(self) -> dict:
        # The workers and the locks stay with the process that forked them.
        state = self.__dict__.copy()
        state.update(_workers=[], _stop=None, _workers_started=True, _running=0)
        del state["_stats_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._stats_lock = threading.Lock()

    def describe(self) -> dict:
        return {
            "executor": self.name,
            "search_workers": len(self._workers),
            "worker_searches": self.worker_searches,
            "inline_searches": self.inline_searches,
            "worker_fallbacks": self.worker_fallbacks,
            "handoffs": self.handoffs,
        }


def resolve_executor(spec: str | BlockExecutor | None = None) -> BlockExecutor:
    """Turn an executor spec into an executor instance.

    ``spec`` may be an executor instance (returned as-is), one of the names
    in :data:`repro.config.EXECUTOR_CHOICES`, or ``None`` for the
    :class:`~repro.service.ServiceConfig` default, ``"auto"``.  Names
    resolve to fresh instances.
    """
    if isinstance(spec, BlockExecutor):
        return spec
    if spec is None:
        spec = ServiceConfig.executor
    if spec == "serial":
        return SerialExecutor()
    if spec == "auto":
        return AutoExecutor()
    raise PipelineError(
        f"unknown executor {spec!r}; available: {EXECUTOR_CHOICES}"
    )
