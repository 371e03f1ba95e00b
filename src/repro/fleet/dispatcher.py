"""QueueDispatcher — the fleet-backed venue for pure tasks.

It speaks the executors' :meth:`~repro.pipeline.executors.BlockExecutor
.run_tasks` contract: where the in-process executors run a pure task in
this process or a forked search worker, this dispatcher enqueues one
``(fn, item, preset)`` task per item on a
:class:`~repro.fleet.queue.FleetQueue` and lets worker processes
(``python -m repro worker``, on this host or others sharing the
directory) run them.  The fixed-block route is the same as on every
executor: :func:`~repro.core.compiler.compile_jobs` resolves cache hits
and warm-start seeds in this process, ships seed-carrying searches
(:func:`~repro.core.compiler.search_job`), and caches and judges the
results here in block order, so fleet pulses are bit-identical to
``serial`` whatever the library holds.  Each result comes back pickled
in its completion record with the ``repro.perf`` counts the task moved,
which are added to this process's registry.

The dispatcher starts no workers: on one host the ``auto`` executor's
forked pool is the faster venue.  With no live worker registered in the
directory (see :meth:`~repro.fleet.queue.FleetQueue.live_workers`) tasks
run inline in the calling process; a dispatch whose every worker leaves
before its results arrive raises :class:`~repro.errors.PipelineError`.
"""

from __future__ import annotations

import threading
import time

from repro.config import get_preset
from repro.errors import PipelineError
from repro.fleet.queue import FleetQueue, PollBackoff, unpack_result
from repro.perf import get_perf_registry
from repro.pipeline.executors import BlockExecutor


class QueueDispatcher(BlockExecutor):
    """Ship pure tasks to the workers draining a fleet queue directory."""

    name = "queue"
    #: Fixed-block searches belong on the workers, so the scheduler ships
    #: them as jobs rather than stacking them into the batched kernel in
    #: the service process.
    prefers_batched = False

    def __init__(
        self,
        fleet_dir,
        lease_ttl_s: float = 30.0,
        poll_s: float = 0.05,
        job_timeout_s: float = 600.0,
    ):
        self.queue = FleetQueue(fleet_dir, lease_ttl_s=lease_ttl_s)
        self.poll_s = float(poll_s)
        self.job_timeout_s = float(job_timeout_s)
        # Counters move under their own lock: submit-pool threads call
        # run_tasks() concurrently.
        self._stats_lock = threading.Lock()
        self.dispatched_jobs = 0
        self.completed_jobs = 0
        self.inline_jobs = 0
        self.completions_by_worker: dict = {}

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
        if not self.queue.live_workers():
            # Nothing drains the queue, so run here and skip the
            # round-trip through the directory.
            with self._stats_lock:
                self.inline_jobs += len(items)
            return [fn(item) for item in items]
        preset = get_preset().name
        job_ids = [self.queue.enqueue((fn, item, preset)) for item in items]
        with self._stats_lock:
            self.dispatched_jobs += len(items)
        perf = get_perf_registry()
        pending = dict.fromkeys(job_ids)
        results: dict = {}
        backoff = PollBackoff(self.poll_s)
        deadline = time.monotonic() + self.job_timeout_s
        while pending:
            # Counted before the scan: a worker that completes a job and
            # then exits has its record read in this scan.
            live = self.queue.live_workers()
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
            if not live:
                raise PipelineError(
                    f"every fleet worker left with {len(pending)} job(s) "
                    f"outstanding; queue: {self.queue.status()!r}"
                )
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
        live = self.queue.live_workers()
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
            "live_workers": live,
            **counts,
            # The ``fleet`` section the service lifts into stats()["fleet"]
            # and the HTTP frontend serves under /v1/stats.
            "fleet": {
                "directory": str(self.queue.directory),
                "pending_jobs": status["pending_jobs"],
                "leased_jobs": status["leased_jobs"],
                "hosts": status["hosts"],
                "live_workers": live,
            },
        }
