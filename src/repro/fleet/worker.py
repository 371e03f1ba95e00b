"""The fleet worker loop: claim → compile → complete, forever.

``python -m repro worker --fleet-dir DIR`` runs one of these.  The loop
claims jobs off the :class:`~repro.fleet.queue.FleetQueue`, applies each
job's recorded preset (so preset-derived knobs like the time-search
precision resolve exactly as they would have in the producing process),
compiles it through the one true execution function
(:func:`repro.pipeline.jobs.run_block_job`), and publishes a completion
record.  Pulses persist through the shared library when the worker was
given a cache directory, and travel back inside the record either way.

Robustness contract (the fleet's satellite requirements):

* **SIGTERM / SIGINT drain** — the signal handler only sets a flag; the
  in-flight job finishes compiling and publishes its record before the
  loop exits cleanly.  Nothing is left mid-lease.
* **Crash reclaim** — while compiling, a daemon thread renews the job's
  lease every ``ttl/3`` seconds.  A worker that is ``kill -9``'d stops
  renewing, and the queue hands its lease to the next claimant (see
  :meth:`~repro.fleet.queue.FleetQueue._lease_stale`).
* **Poison pills** — a job that raises completes with an ``error``
  record instead of wedging the queue; the worker moves on.
"""

from __future__ import annotations

import os
import signal
import threading
import time

from repro.config import set_preset
from repro.fleet.queue import FleetQueue
from repro.pipeline.jobs import _encode_outcome, run_block_job
from repro.service.config import ServiceConfig


class FleetWorker:
    """One pull-loop worker over a fleet queue directory.

    Parameters
    ----------
    fleet_dir:
        The queue directory shared with the dispatcher and other workers.
    cache_dir:
        Optional shared pulse-library directory; jobs may also carry
        their own ``cache_dir``, which wins when present.
    lease_ttl_s / poll_s:
        Crash-reclaim TTL and the idle claim-poll interval.
    heartbeat_s:
        Lease-renewal interval while compiling.  ``None`` (default)
        derives ``lease_ttl_s / 3`` — three missed beats before the
        lease goes stale.  Must be shorter than ``lease_ttl_s``.
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
    announce:
        Publish a registration record (start time, knobs, capabilities)
        in the worker heartbeat, surfaced by ``fleet status``.
    config:
        The :class:`~repro.service.ServiceConfig` whose pulse-library
        fields (shards, budget, prefetch) open the worker's caches;
        ``None`` uses the defaults.  ``python -m repro worker`` passes
        :meth:`~repro.service.ServiceConfig.from_env`.
    """

    def __init__(
        self,
        fleet_dir,
        cache_dir: str | None = None,
        lease_ttl_s: float = 30.0,
        poll_s: float = 0.2,
        heartbeat_s: float | None = None,
        max_jobs: int | None = None,
        idle_exit_s: float | None = None,
        worker_id: str | None = None,
        host_label: str | None = None,
        announce: bool = False,
        config: ServiceConfig | None = None,
    ):
        from repro.errors import ReproError

        self.queue = FleetQueue(
            fleet_dir, lease_ttl_s=lease_ttl_s, host_label=host_label
        )
        self.cache_dir = cache_dir
        self.config = config if config is not None else ServiceConfig()
        self.poll_s = float(poll_s)
        if heartbeat_s is not None and heartbeat_s >= float(lease_ttl_s):
            raise ReproError(
                f"heartbeat_s ({heartbeat_s}) must be shorter than "
                f"lease_ttl_s ({lease_ttl_s}) or every lease goes stale "
                "between beats"
            )
        self.heartbeat_s = (
            float(heartbeat_s)
            if heartbeat_s is not None
            else max(self.queue.lease_ttl_s / 3.0, 0.05)
        )
        self.max_jobs = max_jobs
        self.idle_exit_s = idle_exit_s
        self.worker_id = worker_id or f"{self.queue.host}-{os.getpid()}"
        self.jobs_done = 0
        self._drain = threading.Event()
        self._caches: dict = {}  # cache_dir (or None) -> shared cache
        self._announce: dict | None = None
        if announce:
            from repro import __version__

            self._announce = {
                "announced": True,
                "started_at": time.time(),
                "lease_ttl_s": self.queue.lease_ttl_s,
                "heartbeat_s": self.heartbeat_s,
                "cache_dir": cache_dir,
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

    def _cache_for(self, job):
        """The per-directory shared cache a job compiles against.

        One cache per distinct directory, kept for the worker's lifetime:
        repeat jobs against the same library reuse its loaded index
        instead of re-scanning the directory every claim.
        """
        directory = job.cache_dir or self.cache_dir
        if directory not in self._caches:
            from repro.core.cache import PersistentPulseCache, PulseCache

            self._caches[directory] = (
                PersistentPulseCache(directory, **self.config.library_options())
                if directory
                else PulseCache()
            )
        return self._caches[directory]

    def _run_one(self, job_id: str, job) -> None:
        """Compile one claimed job and publish its completion record."""
        stop = threading.Event()
        interval = self.heartbeat_s

        def _renew():
            while not stop.wait(interval):
                self.queue.heartbeat(job_id)

        renewer = threading.Thread(
            target=_renew, name=f"lease-{job_id[:12]}", daemon=True
        )
        renewer.start()
        start = time.perf_counter()
        try:
            set_preset(job.preset)
            outcome = run_block_job(job, cache=self._cache_for(job))
            record = {
                "job_id": job_id,
                "worker": self.worker_id,
                "outcome": _encode_outcome(outcome),
                "error": None,
                "wall_time_s": round(time.perf_counter() - start, 6),
            }
        except Exception as exc:  # noqa: BLE001 - poison-pill guard
            record = {
                "job_id": job_id,
                "worker": self.worker_id,
                "outcome": None,
                "error": repr(exc),
                "wall_time_s": round(time.perf_counter() - start, 6),
            }
        finally:
            stop.set()
            renewer.join()
        self.queue.complete(job_id, record)
        self.jobs_done += 1

    def _beat(self, state: str) -> None:
        """One liveness heartbeat, carrying the announce record if any."""
        self.queue.write_worker_heartbeat(
            self.worker_id, state, self.jobs_done, extra=self._announce
        )

    def run(self) -> int:
        """The claim loop; returns a process exit code (0 = clean)."""
        self._beat("idle")
        idle_since = time.monotonic()
        while not self._drain.is_set():
            claimed = self.queue.claim(self.worker_id)
            if claimed is None:
                if (
                    self.idle_exit_s is not None
                    and time.monotonic() - idle_since >= self.idle_exit_s
                ):
                    break
                self._beat("idle")
                self._drain.wait(self.poll_s)
                continue
            job_id, job = claimed
            self._beat(f"compiling:{job_id}")
            self._run_one(job_id, job)
            idle_since = time.monotonic()
            if self.max_jobs is not None and self.jobs_done >= self.max_jobs:
                break
        self._beat("exited")
        return 0
