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
    Everything runs in the calling thread.
``auto``
    The service default.  It runs in the calling thread too, except that a
    service's ``auto`` executor forks one search worker, once, at service
    construction, when the process may use two or more CPUs, and a
    request with two or more cold searches runs a share of them on it.
    See :class:`AutoExecutor`.

Both prefer the scheduler's cross-block batched route
(:meth:`~repro.core.compiler.BlockPulseCompiler.compile_blocks_batched`).
Large batches reach more processes through the fleet's ``queue``
dispatcher (:class:`repro.fleet.QueueDispatcher`), not an executor.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import weakref
from typing import Callable, Iterable

from repro.errors import PipelineError
from repro.service.config import EXECUTOR_CHOICES, ServiceConfig


class Dispatcher:
    """Where serializable block jobs go to be compiled.

    The dispatch contract of the fleet refactor: callers hand over
    picklable :class:`~repro.pipeline.jobs.BlockJob` descriptors instead
    of closures, so implementations are free to run them in the calling
    thread, a forked search worker, or a different process entirely
    (:class:`repro.fleet.QueueDispatcher`).  Every in-process executor
    implements it through :meth:`BlockExecutor.run_searches`.
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
    #: for executors that run tasks in the calling thread (serial, auto):
    #: batching turns their sequential small GEMMs into big ones.  False
    #: for an executor whose ``map`` genuinely overlaps tasks — stacking
    #: would serialize them.
    prefers_batched = False

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
    """In-line execution — the fallback everywhere."""

    name = "serial"
    prefers_batched = True

    def map(self, fn: Callable, items: Iterable) -> list:
        return [fn(item) for item in items]


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


class AutoExecutor(SerialExecutor):
    """Inline dispatch plus, where a second CPU exists, one forked search
    worker.

    GRAPE on small blocks holds the interpreter lock (see the module
    docstring), so ``auto`` overlaps a request's block searches only
    through a process forked once and kept.  Everything else is
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
    * :meth:`run_searches` gets a request's cold searches as seed-carrying
      :class:`~repro.pipeline.jobs.BlockJob` descriptors.  With at least
      two, the calling thread claims the idle worker, writes it its share
      (longest-first by starting step count) down its pipe, runs the rest
      itself and collects the replies with their ``repro.perf`` counts;
      no helper thread sits on this path.  A worker busy with a
      concurrent request is skipped.  A dead one is dropped for good and
      its share runs inline, counted in ``worker_fallbacks``.  Results
      are bit-identical to the inline searches.
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
