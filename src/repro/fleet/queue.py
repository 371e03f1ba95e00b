"""File-backed work queue with lease/heartbeat crash reclaim.

The fleet's coordination layer is a directory, not a broker: producers
atomically drop pickled pure tasks — ``(fn, item, preset)``, most often
:func:`~repro.core.compiler.search_job` over a seed-carrying
:class:`~repro.pipeline.jobs.BlockJob` — into ``jobs/``, workers claim
them by writing a lease into ``leases/`` under the queue's
:class:`~repro.library.locking.FileLock`, and finished work comes back as
JSON completion records in ``results/``.  Everything is
plain files with atomic writes (temp + ``os.replace``), so any process —
or several processes on hosts sharing the directory — can participate
with no daemon in between.

Crash safety is lease-based, in the style of filesystem work queues: a
claim is a lease with a TTL, renewed by the worker's heartbeat while it
compiles.  A worker that died holding a lease stops heartbeating, the
lease goes stale after the TTL (or immediately, when the lease's pid is
provably dead on this host), and the next ``claim`` hands the job to
someone else with the lease's ``reclaims`` count bumped.  Delivery is
therefore *at least once* — which is safe here by construction: GRAPE is
deterministic for a given job, a task touches nothing but its item, and
the completion record is atomic and idempotent, so a reclaimed job merely
recomputes the same pulse.

Layout under the queue directory::

    queue.lock        the claim/complete critical-section lock
    jobs/<id>.job     pickled {"schema_version": 2, "job": (fn, item, preset)}
    leases/<id>.json  worker, pid, host, acquired_at, heartbeat_at, ttl_s
    results/<id>.json completion record: the pickled result (base64) and
                      the repro.perf counts the task moved, or an error
    workers/<id>.json per-worker liveness heartbeat: host, pid, state and
                      the worker's registration (started_at, lease_ttl_s,
                      heartbeat_s, version)
"""

from __future__ import annotations

import base64
import json
import os
import pickle
import platform
import threading
import time
from contextlib import contextmanager
from pathlib import Path

from repro.library.locking import FileLock

#: Bump when the on-disk job payload or record layout changes; workers
#: refuse (error-complete) jobs whose schema they do not speak.
FLEET_SCHEMA_VERSION = 3


def pack_result(result) -> str:
    """A task's result as completion-record text: pickled (the job file is
    a pickle already), then base64 for the JSON record."""
    payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
    return base64.b64encode(payload).decode("ascii")


def unpack_result(text: str):
    """The task result :func:`pack_result` wrote."""
    return pickle.loads(base64.b64decode(text))


#: The registration fields every worker beat carries and ``status()``
#: lists for every worker.
WORKER_REGISTRATION = ("started_at", "lease_ttl_s", "heartbeat_s", "version")

#: The first idle-poll wait after new work; see :class:`PollBackoff`.
FIRST_POLL_S = 0.001


class PollBackoff:
    """Idle-poll waits that start at :data:`FIRST_POLL_S` and double on
    every empty poll, up to ``ceiling`` (the caller's ``poll_s``).

    Dispatchers and workers :meth:`reset` it whenever work moves (an
    enqueue, a finished job), so a task that completes in a few
    milliseconds is noticed within about that long, while a long idle
    stretch still polls only once per ``ceiling``.
    """

    def __init__(self, ceiling: float):
        self.ceiling = float(ceiling)
        self.reset()

    def reset(self) -> None:
        self.delay = min(FIRST_POLL_S, self.ceiling)

    def next(self) -> float:
        """The wait before the next poll; doubles the one after."""
        delay = self.delay
        self.delay = min(2.0 * delay, self.ceiling)
        return delay


def _write_json_atomic(path: Path, payload: dict) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(payload))
    os.replace(tmp, path)


def _read_json(path: Path) -> dict | None:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def _pid_alive(pid: int) -> bool:
    """Best-effort liveness probe for a pid on *this* host."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (OSError, PermissionError):
        # Exists but owned by someone else (or an exotic platform error):
        # assume alive and let the TTL decide.
        return True
    return True


class FleetQueue:
    """One fleet coordination directory: enqueue, claim, complete.

    Safe to share between threads of one process (an internal mutex
    serializes use of the non-reentrant file lock) and between processes
    (the file lock serializes the claim/complete critical sections).
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        lease_ttl_s: float = 30.0,
        host_label: str | None = None,
    ):
        self.directory = Path(directory)
        self.lease_ttl_s = float(lease_ttl_s)
        # The host name written into leases and worker heartbeats.  A
        # ``host_label`` override simulates a distinct host on one box
        # (CI's multi-host mode): it also disables the same-host dead-pid
        # probe, so reclaim runs on real TTL semantics — exactly what a
        # genuinely remote host would experience.
        self.host = host_label or platform.node()
        self._host_is_real = host_label is None
        self.jobs_dir = self.directory / "jobs"
        self.leases_dir = self.directory / "leases"
        self.results_dir = self.directory / "results"
        self.workers_dir = self.directory / "workers"
        for sub in (
            self.jobs_dir,
            self.leases_dir,
            self.results_dir,
            self.workers_dir,
        ):
            sub.mkdir(parents=True, exist_ok=True)
        self._file_lock = FileLock(self.directory / "queue.lock")
        self._mutex = threading.Lock()
        self._seq = 0

    @contextmanager
    def _locked(self):
        # The FileLock is not thread-safe (one fd slot per object); the
        # mutex keeps a worker's heartbeat thread from racing its claim
        # loop, and the flock keeps other processes out.
        with self._mutex:
            with self._file_lock:
                yield

    # -- producer side -----------------------------------------------------
    def enqueue(self, job) -> str:
        """Durably add one job; returns its queue id.

        Ids sort by enqueue time (ns timestamp first), so ``claim`` hands
        out work roughly first-in-first-out.
        """
        with self._mutex:
            self._seq += 1
            seq = self._seq
        job_id = f"{time.time_ns():020d}-{os.getpid()}-{seq:04d}"
        payload = pickle.dumps(
            {"schema_version": FLEET_SCHEMA_VERSION, "job": job},
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        path = self.jobs_dir / f"{job_id}.job"
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_bytes(payload)
        os.replace(tmp, path)
        return job_id

    def consume_result(self, job_id: str) -> dict | None:
        """Claim-and-remove one completion record, or ``None`` if not done."""
        path = self.results_dir / f"{job_id}.json"
        with self._locked():
            record = _read_json(path)
            if record is None:
                return None
            try:
                path.unlink()
            except OSError:
                pass
            return record

    # -- worker side -------------------------------------------------------
    def _lease_stale(self, lease: dict) -> bool:
        """Whether a lease's worker should be presumed dead.

        A lease from a pid on *this* host that no longer exists is stale
        immediately (the ``kill -9`` case); otherwise the worker gets the
        full TTL since its last heartbeat before anyone steals its job.
        The pid probe only applies between real hostnames — under a
        ``host_label`` override pids are not comparable, so staleness
        falls back to pure TTL (the cross-host rule).
        """
        heartbeat = lease.get("heartbeat_at") or lease.get("acquired_at") or 0.0
        return self._presumed_dead(
            lease, heartbeat, lease.get("ttl_s") or self.lease_ttl_s
        )

    def _presumed_dead(self, record: dict, heartbeat: float, ttl: float) -> bool:
        """Whether the process behind a lease or worker record is gone:
        its pid is dead on this host, or it has not beaten for ``ttl``."""
        if (
            self._host_is_real
            and record.get("host") == self.host
            and isinstance(record.get("pid"), int)
            and not _pid_alive(record["pid"])
        ):
            return True
        return (time.time() - heartbeat) > ttl

    def claim(self, worker_id: str):
        """Lease the oldest claimable job: ``(job_id, job)`` or ``None``.

        Claimable means no lease, or a lease gone stale (see
        :meth:`_lease_stale`).  An unreadable job payload is completed
        with an error record on the spot so it cannot wedge the queue.
        """
        with self._locked():
            for path in sorted(self.jobs_dir.glob("*.job")):
                job_id = path.stem
                if (self.results_dir / f"{job_id}.json").exists():
                    # A completer crashed between its record write and the
                    # job-file removal: finish the retirement, don't redo
                    # the work.
                    for leftover in (path, self.leases_dir / f"{job_id}.json"):
                        try:
                            leftover.unlink()
                        except OSError:
                            pass
                    continue
                lease_path = self.leases_dir / f"{job_id}.json"
                lease = _read_json(lease_path)
                reclaims = 0
                if lease is not None:
                    if not self._lease_stale(lease):
                        continue
                    reclaims = int(lease.get("reclaims", 0)) + 1
                try:
                    payload = pickle.loads(path.read_bytes())
                    if payload.get("schema_version") != FLEET_SCHEMA_VERSION:
                        raise ValueError(
                            f"job {job_id} has schema "
                            f"{payload.get('schema_version')!r}; this worker "
                            f"speaks {FLEET_SCHEMA_VERSION}"
                        )
                    job = payload["job"]
                except Exception as exc:  # noqa: BLE001 - poison-pill guard
                    self._complete_locked(
                        job_id,
                        {
                            "job_id": job_id,
                            "worker": worker_id,
                            "result": None,
                            "error": f"unreadable job payload: {exc!r}",
                            "wall_time_s": 0.0,
                            "reclaims": reclaims,
                        },
                    )
                    continue
                now = time.time()
                _write_json_atomic(
                    lease_path,
                    {
                        "job_id": job_id,
                        "worker": worker_id,
                        "pid": os.getpid(),
                        "host": self.host,
                        "acquired_at": now,
                        "heartbeat_at": now,
                        "ttl_s": self.lease_ttl_s,
                        "reclaims": reclaims,
                    },
                )
                return job_id, job
        return None

    def heartbeat(self, job_id: str) -> None:
        """Refresh a held lease's heartbeat timestamp."""
        path = self.leases_dir / f"{job_id}.json"
        with self._locked():
            lease = _read_json(path)
            if lease is None:
                return
            lease["heartbeat_at"] = time.time()
            _write_json_atomic(path, lease)

    def _complete_locked(self, job_id: str, record: dict) -> None:
        _write_json_atomic(self.results_dir / f"{job_id}.json", record)
        for leftover in (
            self.jobs_dir / f"{job_id}.job",
            self.leases_dir / f"{job_id}.json",
        ):
            try:
                leftover.unlink()
            except OSError:
                pass

    def complete(self, job_id: str, record: dict) -> None:
        """Publish a completion record and retire the job + lease.

        The record lands before the job file disappears, so a crash
        between the two leaves a completed job that a later ``claim``
        skips-and-retires rather than a lost result.
        """
        with self._locked():
            self._complete_locked(job_id, record)

    def write_worker_heartbeat(
        self, worker_id: str, state: str, jobs_done: int, extra: dict | None = None
    ) -> None:
        """Publish one worker's liveness for dispatchers and ``fleet status``.

        Every beat carries this queue's ``lease_ttl_s``, the TTL that
        readers judge the record by (see :meth:`_worker_records`), and
        ``extra``, the worker's other registration fields (start time,
        heartbeat interval, version), so the atomic rewrite keeps them.
        """
        record = {
            "worker": worker_id,
            "pid": os.getpid(),
            "host": self.host,
            "updated_at": time.time(),
            "state": state,
            "jobs_done": jobs_done,
            "lease_ttl_s": self.lease_ttl_s,
        }
        if extra:
            record.update(extra)
        _write_json_atomic(self.workers_dir / f"{worker_id}.json", record)

    def _worker_records(self) -> list:
        """Every readable worker record as ``(path, record, gone)``,
        ``gone`` meaning ``exited`` or presumed dead.

        Each record is judged by the ``lease_ttl_s`` its worker wrote (a
        worker beats every third of it while it runs a job); only a
        record without one falls back to this queue's TTL.  A gone record
        whose last beat is more than one TTL old is deleted instead of
        returned, so a long-lived directory does not make every scan read
        each worker that ever ran.  A worker wrongly presumed dead
        rewrites its record on its next beat.
        """
        now = time.time()
        records = []
        for path in sorted(self.workers_dir.glob("*.json")):
            info = _read_json(path)
            if info is None:
                continue
            heartbeat = info.get("updated_at") or 0.0
            ttl = info.get("lease_ttl_s") or self.lease_ttl_s
            gone = info.get("state") == "exited" or self._presumed_dead(
                info, heartbeat, ttl
            )
            if gone and now - heartbeat > ttl:
                try:
                    path.unlink()
                except OSError:
                    pass
                continue
            records.append((path, info, gone))
        return records

    def live_workers(self) -> int:
        """How many workers drain this directory now: their heartbeat is
        not ``exited`` and their process is not presumed dead (a worker
        beats while idle and while it holds a lease)."""
        return sum(not gone for _, _, gone in self._worker_records())

    # -- observability -----------------------------------------------------
    def status(self) -> dict:
        """A point-in-time snapshot: depth, leases, results, workers.

        Host-aware: every lease and worker entry carries its ``host``,
        and ``hosts`` aggregates them per machine sharing the directory —
        the view ``fleet status`` renders.  A worker is ``live`` (and
        counts in its host's ``active`` and in ``live_workers``) by the
        rule :meth:`live_workers` applies, and workers gone for more than
        one TTL are pruned as there.
        """
        now = time.time()
        pending = sorted(p.stem for p in self.jobs_dir.glob("*.job"))
        leases = []
        for path in sorted(self.leases_dir.glob("*.json")):
            lease = _read_json(path)
            if lease is None:
                continue
            heartbeat = lease.get("heartbeat_at") or lease.get("acquired_at")
            leases.append(
                {
                    "job_id": lease.get("job_id", path.stem),
                    "worker": lease.get("worker"),
                    "host": lease.get("host"),
                    "age_s": round(now - (lease.get("acquired_at") or now), 3),
                    "heartbeat_age_s": round(now - (heartbeat or now), 3),
                    "reclaims": lease.get("reclaims", 0),
                    "stale": self._lease_stale(lease),
                }
            )
        workers = []
        for path, info, gone in self._worker_records():
            workers.append(
                {
                    "worker": info.get("worker", path.stem),
                    "pid": info.get("pid"),
                    "host": info.get("host"),
                    "state": info.get("state"),
                    "live": not gone,
                    "jobs_done": info.get("jobs_done", 0),
                    "heartbeat_age_s": round(
                        now - (info.get("updated_at") or now), 3
                    ),
                    **{key: info.get(key) for key in WORKER_REGISTRATION},
                }
            )
        hosts: dict = {}
        for entry in workers:
            host = entry.get("host") or "?"
            group = hosts.setdefault(
                host,
                {"workers": 0, "active": 0, "jobs_done": 0, "leases": 0},
            )
            group["workers"] += 1
            group["active"] += entry["live"]
            group["jobs_done"] += entry.get("jobs_done") or 0
        for entry in leases:
            host = entry.get("host") or "?"
            group = hosts.setdefault(
                host,
                {"workers": 0, "active": 0, "jobs_done": 0, "leases": 0},
            )
            group["leases"] += 1
        return {
            "directory": str(self.directory),
            "pending_jobs": len(pending),
            "leased_jobs": len(leases),
            "completed_results": len(list(self.results_dir.glob("*.json"))),
            "leases": leases,
            "workers": workers,
            "live_workers": sum(entry["live"] for entry in workers),
            "hosts": hosts,
        }
