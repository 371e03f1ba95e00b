"""QueueDispatcher — the fleet-backed venue for pure tasks.

It speaks the executors' :meth:`~repro.pipeline.executors.BlockExecutor
.run_tasks` contract: where the in-process executors run a pure task in
this process or a forked search worker, this dispatcher enqueues one
``(fn, item, preset)`` task per item on a
:class:`~repro.fleet.queue.FleetQueue` and lets detached worker processes
(``python -m repro worker``) run them.  The fixed-block route is the same
as on every executor: :func:`~repro.core.compiler.compile_jobs` resolves
cache hits and warm-start seeds in this process, ships seed-carrying
searches (:func:`~repro.core.compiler.search_job`), and caches and judges
the results here in block order, so fleet pulses are bit-identical to
``serial`` whatever the library holds.  Each result comes back pickled
in its completion record with the ``repro.perf`` counts the task moved,
which are added to this process's registry.  Workers are spawned lazily
on the first dispatch and revived if they die.

Worker processes are launched with an explicit ``sys.path`` bootstrap
rather than environment surgery — configuration enters this package only
through constructor arguments, in keeping with the repo's single-reader
environment rule (:mod:`repro.service.config`).

With ``workers=0`` and nothing else draining the queue directory, tasks
run inline in the calling process — the dispatcher stays usable in
one-process tests and as a degraded mode when spawning is undesirable.
"""

from __future__ import annotations

import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.config import get_preset
from repro.errors import PipelineError
from repro.fleet.queue import FleetQueue, PollBackoff, unpack_result
from repro.perf import get_perf_registry
from repro.pipeline.executors import BlockExecutor

#: ``python -c`` shim that puts this checkout's ``src`` on ``sys.path``
#: (first argv entry) and hands the rest to the repro CLI.
_WORKER_BOOTSTRAP = (
    "import sys; sys.path.insert(0, sys.argv.pop(1)); "
    "from repro.cli import main; sys.exit(main(sys.argv[1:]))"
)

#: Worker crash-loop guard: revival attempts per dispatch call.
_MAX_RESPAWNS = 3


class QueueDispatcher(BlockExecutor):
    """Ship pure tasks to a fleet of worker processes via the file queue."""

    name = "queue"
    #: Fixed-block searches belong on the workers, so the scheduler ships
    #: them as jobs rather than stacking them into the batched kernel in
    #: the service process.
    prefers_batched = False

    def __init__(
        self,
        fleet_dir,
        workers: int = 0,
        lease_ttl_s: float = 30.0,
        poll_s: float = 0.05,
        job_timeout_s: float = 600.0,
    ):
        self.queue = FleetQueue(fleet_dir, lease_ttl_s=lease_ttl_s)
        self.workers = max(0, int(workers))
        self.poll_s = float(poll_s)
        self.job_timeout_s = float(job_timeout_s)
        self._procs: list = []
        # Concurrent run_tasks() calls (service submit-pool threads)
        # share the worker pool; the lock keeps them from over-spawning.
        self._procs_lock = threading.Lock()
        self.workers_spawned = 0
        self.respawns = 0
        # Counters move under their own lock: submit-pool threads call
        # run_tasks() concurrently.
        self._stats_lock = threading.Lock()
        self.dispatched_jobs = 0
        self.completed_jobs = 0
        self.inline_jobs = 0
        self.completions_by_worker: dict = {}

    # -- worker lifecycle --------------------------------------------------
    def _spawn_worker(self) -> None:
        """Start one detached worker and add it to the pool."""
        import repro

        src_root = Path(repro.__file__).resolve().parent.parent
        cmd = [
            sys.executable,
            "-c",
            _WORKER_BOOTSTRAP,
            str(src_root),
            "worker",
            "--fleet-dir",
            str(self.queue.directory),
            "--lease-ttl",
            str(self.queue.lease_ttl_s),
            "--poll",
            str(self.poll_s),
        ]
        self._procs.append(subprocess.Popen(cmd))
        self.workers_spawned += 1

    def _live_workers(self) -> int:
        with self._procs_lock:
            self._procs = [p for p in self._procs if p.poll() is None]
            return len(self._procs)

    def _ensure_workers(self) -> None:
        """Top the fleet back up to the configured worker count."""
        with self._procs_lock:
            self._procs = [p for p in self._procs if p.poll() is None]
            while len(self._procs) < self.workers:
                self._spawn_worker()

    def close(self) -> None:
        """Drain the fleet: SIGTERM each worker, then escalate to kill."""
        with self._procs_lock:
            procs, self._procs = self._procs, []
        for proc in procs:
            if proc.poll() is None:
                try:
                    proc.send_signal(signal.SIGTERM)
                except OSError:
                    pass
        for proc in procs:
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- dispatch ----------------------------------------------------------
    def map(self, fn, items) -> list:
        """Closure work (parametrized handlers, trivial blocks) runs inline."""
        return [fn(item) for item in items]

    def run_tasks(self, fn, items) -> list:
        """Enqueue one ``(fn, item, preset)`` task per item and collect the
        results in input order.

        ``preset`` is this process's active preset, which the worker
        applies before it runs ``fn(item)``.  The ``repro.perf`` counts
        each task moved in its worker are added here.
        """
        items = list(items)
        if not items:
            return []
        if self.workers == 0 and self._live_workers() == 0:
            # Degraded one-process mode: nothing will drain the queue, so
            # run here and skip the round-trip through the directory.
            with self._stats_lock:
                self.inline_jobs += len(items)
            return [fn(item) for item in items]
        self._ensure_workers()
        preset = get_preset().name
        job_ids = [self.queue.enqueue((fn, item, preset)) for item in items]
        with self._stats_lock:
            self.dispatched_jobs += len(items)
        perf = get_perf_registry()
        pending = dict.fromkeys(job_ids)
        results: dict = {}
        backoff = PollBackoff(self.poll_s)
        respawns_left = _MAX_RESPAWNS
        deadline = time.monotonic() + self.job_timeout_s
        while pending:
            progressed = False
            for job_id in list(pending):
                record = self.queue.consume_result(job_id)
                if record is None:
                    continue
                del pending[job_id]
                progressed = True
                if record.get("error"):
                    raise PipelineError(
                        f"fleet worker {record.get('worker')} failed job "
                        f"{job_id}: {record['error']}"
                    )
                results[job_id] = unpack_result(record["result"])
                perf.add_counts(record["counts"])
                worker = record.get("worker") or "?"
                with self._stats_lock:
                    self.completed_jobs += 1
                    self.completions_by_worker[worker] = (
                        self.completions_by_worker.get(worker, 0) + 1
                    )
            if progressed:
                deadline = time.monotonic() + self.job_timeout_s
                backoff.reset()
                continue
            if self.workers > 0 and self._live_workers() < self.workers:
                if respawns_left <= 0:
                    raise PipelineError(
                        "fleet workers keep dying with "
                        f"{len(pending)} job(s) outstanding; "
                        f"queue: {self.queue.status()!r}"
                    )
                respawns_left -= 1
                self.respawns += 1
                self._ensure_workers()
            if time.monotonic() > deadline:
                raise PipelineError(
                    f"fleet made no progress for {self.job_timeout_s:.0f}s "
                    f"with {len(pending)} job(s) outstanding; "
                    f"queue: {self.queue.status()!r}"
                )
            time.sleep(backoff.next())
        return [results[job_id] for job_id in job_ids]

    def describe(self) -> dict:
        status = self.queue.status()
        with self._stats_lock:
            counts = {
                "dispatched_jobs": self.dispatched_jobs,
                "completed_jobs": self.completed_jobs,
                "inline_jobs": self.inline_jobs,
                "completions_by_worker": dict(self.completions_by_worker),
            }
        return {
            "executor": self.name,
            "fleet_dir": str(self.queue.directory),
            "workers": self.workers,
            "live_workers": self._live_workers(),
            "workers_spawned": self.workers_spawned,
            "respawns": self.respawns,
            **counts,
            # The ``fleet`` section the service lifts into stats()["fleet"]
            # and the HTTP frontend serves under /v1/stats.
            "fleet": {
                "directory": str(self.queue.directory),
                "pending_jobs": status["pending_jobs"],
                "leased_jobs": status["leased_jobs"],
                "hosts": status["hosts"],
                "live_workers": self._live_workers(),
                "workers_spawned": self.workers_spawned,
            },
        }
