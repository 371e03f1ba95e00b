"""QueueDispatcher — the fleet-backed implementation of the dispatch contract.

Where the in-process executors run :class:`~repro.pipeline.jobs.BlockJob`
descriptors through their own ``map``, this dispatcher enqueues them on a
:class:`~repro.fleet.queue.FleetQueue` and lets detached worker processes
(``python -m repro worker``) compile them.  Workers are spawned lazily on
the first dispatch and revived if they die; pulses come back through the
shared pulse library (each job is stamped with the dispatcher's
``cache_dir`` before enqueueing) and through the completion record's
encoded outcome, which round-trips bit-identically.

Worker processes are launched with an explicit ``sys.path`` bootstrap
rather than environment surgery — configuration enters this package only
through constructor arguments, in keeping with the repo's single-reader
environment rule (:mod:`repro.service.config`).

With ``workers=0`` and nothing else draining the queue directory, jobs
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

from repro.errors import PipelineError
from repro.fleet.queue import FleetQueue
from repro.pipeline.executors import BlockExecutor
from repro.pipeline.jobs import _decode_outcome, run_block_job

#: ``python -c`` shim that puts this checkout's ``src`` on ``sys.path``
#: (first argv entry) and hands the rest to the repro CLI.
_WORKER_BOOTSTRAP = (
    "import sys; sys.path.insert(0, sys.argv.pop(1)); "
    "from repro.cli import main; sys.exit(main(sys.argv[1:]))"
)

#: Worker crash-loop guard: revival attempts per dispatch call.
_MAX_RESPAWNS = 3


class QueueDispatcher(BlockExecutor):
    """Ship block jobs to a fleet of worker processes via the file queue."""

    name = "queue"
    #: ``map`` runs inline in the service process (parametrized handlers,
    #: plan entries), so the scheduler should not stack batched GRAPE work
    #: onto it.
    prefers_batched = False

    def __init__(
        self,
        fleet_dir,
        cache_dir: str | None = None,
        workers: int = 0,
        lease_ttl_s: float = 30.0,
        heartbeat_s: float | None = None,
        poll_s: float = 0.05,
        job_timeout_s: float = 600.0,
        autoscale: bool = False,
        min_workers: int = 0,
        max_workers: int = 4,
        surge_idle_exit_s: float = 5.0,
    ):
        self.queue = FleetQueue(fleet_dir, lease_ttl_s=lease_ttl_s)
        self.cache_dir = str(cache_dir) if cache_dir else None
        self.workers = max(0, int(workers))
        self.heartbeat_s = heartbeat_s
        self.poll_s = float(poll_s)
        self.job_timeout_s = float(job_timeout_s)
        self._procs: list = []
        # Concurrent dispatch_jobs() calls (service submit-pool threads)
        # share the worker pool; the lock keeps them from over-spawning.
        self._procs_lock = threading.Lock()
        self.workers_spawned = 0
        self.respawns = 0
        self.dispatched_jobs = 0
        self.completed_jobs = 0
        self.inline_jobs = 0
        self.completions_by_worker: dict = {}
        # Autoscale mode replaces the fixed-count respawn loop: the
        # autoscaler owns the pool, sampling backlog once per interval
        # from inside the dispatch poll loop.
        self._autoscaler = None
        if autoscale:
            from repro.fleet.autoscaler import FleetAutoscaler

            self._autoscaler = FleetAutoscaler(
                queue_depth=self._backlog,
                spawn_worker=self._spawn_worker_process,
                min_workers=min_workers,
                max_workers=max_workers,
                surge_idle_exit_s=surge_idle_exit_s,
            )

    # -- worker lifecycle --------------------------------------------------
    def _backlog(self) -> int:
        """Incomplete jobs (pending + leased) — the autoscaler's signal.

        A job file persists until its completion record retires it, so
        counting ``jobs/`` covers both queued and in-flight work without
        the full ``status()`` scan.
        """
        return len(list(self.queue.jobs_dir.glob("*.job")))

    def _spawn_worker_process(self, idle_exit_s: float | None = None):
        """Start one detached worker; returns its process handle."""
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
        if self.heartbeat_s is not None:
            cmd += ["--heartbeat", str(self.heartbeat_s)]
        if idle_exit_s is not None:
            cmd += ["--idle-exit", str(idle_exit_s)]
        if self.cache_dir:
            cmd += ["--cache-dir", self.cache_dir]
        proc = subprocess.Popen(cmd)
        self.workers_spawned += 1
        return proc

    def _spawn_worker(self) -> None:
        self._procs.append(self._spawn_worker_process())

    def _live_workers(self) -> int:
        with self._procs_lock:
            if self._autoscaler is not None:
                return self._autoscaler.live_workers()
            self._procs = [p for p in self._procs if p.poll() is None]
            return len(self._procs)

    def _ensure_workers(self) -> None:
        """Top the fleet back up to the configured worker count."""
        with self._procs_lock:
            if self._autoscaler is not None:
                self._autoscaler.ensure_floor()
                return
            self._procs = [p for p in self._procs if p.poll() is None]
            while len(self._procs) < self.workers:
                self._spawn_worker()

    def close(self) -> None:
        """Drain the fleet: SIGTERM each worker, then escalate to kill."""
        with self._procs_lock:
            procs, self._procs = self._procs, []
            if self._autoscaler is not None:
                procs += self._autoscaler.processes()
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
        """Non-job work (parametrized handlers, plan entries) runs inline."""
        return [fn(item) for item in items]

    def dispatch_jobs(self, jobs: list, cache=None) -> list:
        """Enqueue every job and collect outcomes in input order.

        Jobs are stamped with the dispatcher's ``cache_dir`` so workers
        persist their pulses where the service reads.  ``cache`` (the
        caller's in-process pulse cache) is only used by the inline
        degraded mode — fleet workers open the shared library themselves.
        """
        jobs = list(jobs)
        if not jobs:
            return []
        for job in jobs:
            if self.cache_dir and not job.cache_dir:
                job.cache_dir = self.cache_dir
        if (
            self._autoscaler is None
            and self.workers == 0
            and self._live_workers() == 0
        ):
            # Degraded one-process mode: nothing will drain the queue, so
            # compile here and skip the round-trip through the directory.
            # (Never taken with the autoscaler: it spawns on backlog.)
            self.inline_jobs += len(jobs)
            return [run_block_job(job, cache=cache) for job in jobs]
        self._ensure_workers()
        job_ids = [self.queue.enqueue(job) for job in jobs]
        self.dispatched_jobs += len(jobs)
        pending = dict.fromkeys(job_ids)
        outcomes: dict = {}
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
                outcomes[job_id] = _decode_outcome(record["outcome"])
                self.completed_jobs += 1
                worker = record.get("worker") or "?"
                self.completions_by_worker[worker] = (
                    self.completions_by_worker.get(worker, 0) + 1
                )
            if progressed:
                deadline = time.monotonic() + self.job_timeout_s
                continue
            if self._autoscaler is not None:
                # The autoscaler owns the pool: one rate-limited backlog
                # sample per poll instead of fixed-count respawning.
                with self._procs_lock:
                    self._autoscaler.maybe_sample()
            elif self.workers > 0 and self._live_workers() < self.workers:
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
            time.sleep(self.poll_s)
        return [outcomes[job_id] for job_id in job_ids]

    def describe(self) -> dict:
        with self._procs_lock:
            autoscaler = (
                self._autoscaler.describe()
                if self._autoscaler is not None
                else None
            )
        status = self.queue.status()
        return {
            "executor": self.name,
            "fleet_dir": str(self.queue.directory),
            "workers": self.workers,
            "live_workers": self._live_workers(),
            "workers_spawned": self.workers_spawned,
            "respawns": self.respawns,
            "dispatched_jobs": self.dispatched_jobs,
            "completed_jobs": self.completed_jobs,
            "inline_jobs": self.inline_jobs,
            "completions_by_worker": dict(self.completions_by_worker),
            # The ``fleet`` section the service lifts into stats()["fleet"]
            # and the HTTP frontend serves under /v1/stats.
            "fleet": {
                "mode": "autoscale" if self._autoscaler is not None else "fixed",
                "directory": str(self.queue.directory),
                "pending_jobs": status["pending_jobs"],
                "leased_jobs": status["leased_jobs"],
                "hosts": status["hosts"],
                "live_workers": self._live_workers(),
                "workers_spawned": self.workers_spawned,
                "autoscaler": autoscaler,
            },
        }
