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
the same pulses.  The fleet's ``queue`` dispatcher
(:class:`repro.fleet.QueueDispatcher`) speaks the same ``run_tasks``
contract, so a fixed block has one route whichever venue searches it.

Choosing an executor
--------------------
GRAPE on the small blocks partial compilation produces is a few dozen
numpy calls on 4×4 matrices per iteration, so it holds the interpreter
lock: only processes overlap it.

``serial``
    Everything runs in the calling thread.
``auto``
    The service default.  It runs in the calling thread too, except that a
    service's ``auto`` executor forks one search worker, once, at service
    construction, when the process may use two or more CPUs, and a
    request with two or more pure tasks (cold block searches, flexible
    runtime entries) shares them with it.  See :class:`AutoExecutor`.

Both prefer the scheduler's cross-block batched route
(:meth:`~repro.core.compiler.BlockPulseCompiler.compile_blocks_batched`).
Large batches reach more processes through the ``queue`` dispatcher, not
an executor.
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


def _search_worker_loop(conn, parent_end, next_index) -> None:
    """Body of one forked search worker.

    Answers ``"ready"`` once, then blocks on its pipe between requests —
    it never polls.  Each request is a share ``(fn, items, preset)``: the
    worker makes ``preset`` active, claims indices from ``next_index``
    (shared with the caller, who claims from it too) until none is left,
    and answers ``("ok", [(index, result), ...], counts)`` — ``counts``
    are the ``repro.perf`` counters its tasks moved — or
    ``("error", exception)``.  ``None`` or a closed pipe ends it.
    """
    import signal

    import numpy as np

    from repro.config import get_preset, set_preset
    from repro.perf import get_perf_registry

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
    """

    def __init__(self, context):
        parent_end, child_end = context.Pipe()
        self.next_index = context.Value("q", 0)
        self.process = context.Process(
            target=_search_worker_loop,
            args=(child_end, parent_end, self.next_index),
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


class AutoExecutor(SerialExecutor):
    """Inline dispatch plus, where a second CPU exists, one forked search
    worker.

    GRAPE on small blocks holds the interpreter lock (see the module
    docstring), so ``auto`` overlaps a request's pure tasks only through
    a process forked once and kept.  Everything else is
    :class:`SerialExecutor`: closure maps run inline and the scheduler
    prefers :meth:`~repro.core.compiler.BlockPulseCompiler
    .compile_blocks_batched`, on every host.

    * :meth:`start_worker` forks ONE search worker when this process may
      run on at least two CPUs (its affinity mask, not the host's count)
      and ``fork`` exists.  :class:`~repro.service.CompilationService`
      calls it in its constructor, before it starts any thread of its
      own: a fork from a request thread while another runs GRAPE can hang
      the child.  :meth:`close` reaps it.  One worker is the measured
      configuration (a 2-CPU host); more would need a measured larger
      host first.
    * :meth:`run_tasks` gets a request's pure tasks: cold block searches
      as seed-carrying :class:`~repro.pipeline.jobs.BlockJob` descriptors,
      or the flexible runtime's per-θ plan entries.  With at least two,
      the calling thread claims the idle worker and writes it the task
      list with this process's preset down its pipe.  Then both sides
      claim the next unclaimed index from one shared counter until none
      is left, so whichever side finishes a task first takes the next
      one.  Index 0 is always the calling thread's.  The caller then
      collects the worker's results with their ``repro.perf`` counts; no
      helper thread sits on this path.  A task raising here exhausts the
      counter, so the worker stops after its current task.  A worker
      busy with a concurrent request is skipped.  A dead one is dropped
      for good and its unfinished indices run inline, counted once in
      ``worker_fallbacks``.  Results are bit-identical to inline runs.
      ``worker_searches`` and ``inline_searches`` count the tasks each
      side ran, flexible runtime entries included.
    """

    name = "auto"

    def __init__(self):
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
        import repro.core.flexible  # noqa: F401
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

    def run_tasks(self, fn: Callable, items: Iterable) -> list:
        """Run a request's pure tasks on the idle worker and here."""
        from repro.config import get_preset
        from repro.perf import get_perf_registry

        items = list(items)
        n = len(items)
        worker = self._claim_worker() if n > 1 else None
        if worker is None:
            with self._stats_lock:
                self.inline_searches += n
            return [fn(item) for item in items]
        results: list = [None] * n
        own = []
        reply = None
        in_flight = False
        try:
            worker.next_index.value = 1  # index 0 is the calling thread's
            # The worker never runs item 0, so it does not travel.
            in_flight = worker.send((fn, [None, *items[1:]], get_preset().name))
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
            self.worker_fallbacks += reply is None
            self.inline_searches += n - shared
            self.worker_searches += shared
        return results

    def close(self) -> None:
        """Stop and reap the search worker (idempotent); tasks then run
        inline."""
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

    def describe(self) -> dict:
        return {
            "executor": self.name,
            "search_workers": int(self._worker is not None),
            "worker_searches": self.worker_searches,
            "inline_searches": self.inline_searches,
            "worker_fallbacks": self.worker_fallbacks,
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
