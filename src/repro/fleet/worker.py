"""The fleet worker loop: claim → run → complete, forever.

``python -m repro worker --fleet-dir DIR`` runs one of these.  The loop
claims pure tasks ``(fn, item, preset)`` off the
:class:`~repro.fleet.queue.FleetQueue` — seed-carrying block searches
(:func:`repro.core.compiler.search_job`) and flexible runtime entries —
applies the dispatching process's preset (so preset-derived knobs like
the time-search precision resolve exactly as they would have there),
runs ``fn(item)``, and publishes a completion record carrying the pickled
result and the ``repro.perf`` counts the task moved.  The worker opens no
pulse library: the dispatching process resolved hits and seeds before it
enqueued the task, and it caches and judges the result itself.

Robustness contract:

* **SIGTERM / SIGINT drain** — the signal handler only sets a flag; the
  in-flight job finishes and publishes its record before the loop exits
  cleanly.  Nothing is left mid-lease.
* **Crash reclaim** — while running a job, a daemon thread renews its
  lease and its worker heartbeat every ``ttl/3`` seconds.  A worker
  that is ``kill -9``'d stops renewing, and the queue hands its lease
  to the next claimant (see
  :meth:`~repro.fleet.queue.FleetQueue._lease_stale`).
* **Poison pills** — a job that raises completes with an ``error``
  record instead of wedging the queue; the worker moves on.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.config import set_preset
from repro.fleet.queue import FleetQueue, PollBackoff, pack_result
from repro.perf import get_perf_registry

#: ``python -c`` shim that puts this checkout's ``src`` on ``sys.path``
#: (first argv entry) and hands the rest to the repro CLI.
_WORKER_BOOTSTRAP = (
    "import sys; sys.path.insert(0, sys.argv.pop(1)); "
    "from repro.cli import main; sys.exit(main(sys.argv[1:]))"
)


def spawn_worker(fleet_dir, *args, **popen_kwargs) -> subprocess.Popen:
    """Start ``python -m repro worker --fleet-dir DIR *args`` from this
    checkout in a child process, the way tests and benchmarks stand in
    for workers started on other hosts.  The caller stops it: SIGTERM
    drains the in-flight job."""
    import repro

    src_root = Path(repro.__file__).resolve().parent.parent
    cmd = [
        sys.executable,
        "-c",
        _WORKER_BOOTSTRAP,
        str(src_root),
        "worker",
        "--fleet-dir",
        str(fleet_dir),
        *map(str, args),
    ]
    return subprocess.Popen(cmd, **popen_kwargs)


class FleetWorker:
    """One pull-loop worker over a fleet queue directory.

    Parameters
    ----------
    fleet_dir:
        The queue directory shared with the dispatcher and other workers.
    lease_ttl_s / poll_s:
        Crash-reclaim TTL and the longest idle claim-poll interval (idle
        polls back off from 1 ms up to it; see
        :class:`~repro.fleet.queue.PollBackoff`).  While a job runs its
        lease and worker record are renewed every ``lease_ttl_s / 3``
        seconds, so three missed beats make them stale.  The TTL is
        written into both, so every reader judges this worker by it.
    max_jobs:
        Exit after completing this many jobs (``None`` = unbounded).
    idle_exit_s:
        Exit after this long with nothing claimable (``None`` = wait for
        a signal instead).
    worker_id:
        Stable identity for leases/heartbeats; defaults to host + pid.
    host_label:
        Override the hostname written into leases/heartbeats (simulated
        multi-host testing; see :class:`~repro.fleet.queue.FleetQueue`).

    Every heartbeat carries the worker's registration (start time, lease
    TTL, heartbeat interval, version), listed by ``fleet status``.
    """

    def __init__(
        self,
        fleet_dir,
        lease_ttl_s: float = 30.0,
        poll_s: float = 0.2,
        max_jobs: int | None = None,
        idle_exit_s: float | None = None,
        worker_id: str | None = None,
        host_label: str | None = None,
    ):
        self.queue = FleetQueue(
            fleet_dir, lease_ttl_s=lease_ttl_s, host_label=host_label
        )
        self.poll_s = float(poll_s)
        self.heartbeat_s = max(self.queue.lease_ttl_s / 3.0, 0.05)
        self.max_jobs = max_jobs
        self.idle_exit_s = idle_exit_s
        self.worker_id = worker_id or f"{self.queue.host}-{os.getpid()}"
        self.jobs_done = 0
        self._drain = threading.Event()
        from repro import __version__

        # The queue adds ``lease_ttl_s`` to every beat itself.
        self._registration = {
            "started_at": time.time(),
            "heartbeat_s": self.heartbeat_s,
            "version": __version__,
        }

    def install_signal_handlers(self) -> None:
        """Route SIGTERM/SIGINT to the drain flag (main thread only)."""
        signal.signal(signal.SIGTERM, self._on_signal)
        signal.signal(signal.SIGINT, self._on_signal)

    def _on_signal(self, signum, frame) -> None:
        # Only flip the flag: the claim loop observes it between jobs, so
        # the in-flight compilation always drains to a completion record.
        self._drain.set()

    def _run_one(self, job_id: str, task) -> None:
        """Run one claimed task and publish its completion record."""
        stop = threading.Event()
        interval = self.heartbeat_s

        def _renew():
            while not stop.wait(interval):
                self.queue.heartbeat(job_id)
                self._beat(f"compiling:{job_id}")

        renewer = threading.Thread(
            target=_renew, name=f"lease-{job_id[:12]}", daemon=True
        )
        renewer.start()
        start = time.perf_counter()
        try:
            fn, item, preset = task
            set_preset(preset)
            with get_perf_registry().counts_moved() as counts:
                result = fn(item)
            record = {
                "job_id": job_id,
                "worker": self.worker_id,
                "result": pack_result(result),
                "counts": counts,
                "error": None,
                "wall_time_s": round(time.perf_counter() - start, 6),
            }
        except Exception as exc:  # noqa: BLE001 - poison-pill guard
            record = {
                "job_id": job_id,
                "worker": self.worker_id,
                "result": None,
                "error": repr(exc),
                "wall_time_s": round(time.perf_counter() - start, 6),
            }
        finally:
            stop.set()
            renewer.join()
        self.queue.complete(job_id, record)
        self.jobs_done += 1

    def _beat(self, state: str) -> None:
        """One liveness heartbeat, carrying the registration."""
        self.queue.write_worker_heartbeat(
            self.worker_id, state, self.jobs_done, extra=self._registration
        )

    def run(self) -> int:
        """The claim loop; returns a process exit code (0 = clean)."""
        self._beat("idle")
        idle_since = time.monotonic()
        backoff = PollBackoff(self.poll_s)
        while not self._drain.is_set():
            claimed = self.queue.claim(self.worker_id)
            if claimed is None:
                if (
                    self.idle_exit_s is not None
                    and time.monotonic() - idle_since >= self.idle_exit_s
                ):
                    break
                self._beat("idle")
                self._drain.wait(backoff.next())
                continue
            job_id, job = claimed
            self._beat(f"compiling:{job_id}")
            self._run_one(job_id, job)
            idle_since = time.monotonic()
            backoff.reset()
            if self.max_jobs is not None and self.jobs_done >= self.max_jobs:
                break
        self._beat("exited")
        return 0
