"""QueueDispatcher: batch bit-identity, exactly-once, counts, worker
liveness, and failure modes of the ``run_tasks`` route."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import replace

import pytest

from repro.core import PulseCache
from repro.core.compiler import compile_jobs, search_job
from repro.errors import PipelineError
from repro.fleet import FleetQueue, FleetWorker, QueueDispatcher
from repro.perf import get_perf_registry
from repro.pipeline import SerialExecutor
from repro.pulse.hamiltonian import build_control_set


def _serial(jobs) -> list:
    return compile_jobs(jobs, PulseCache(), SerialExecutor())


def _slow_identity(item):
    time.sleep(0.3)
    return item


def _wait_for(predicate, timeout: float = 30.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


class TestInlineMode:
    def test_no_live_worker_compiles_inline(
        self, tmp_path, job_factory, outcomes_identical
    ):
        jobs = [job_factory(0.2), job_factory(0.9)]
        expected = _serial(jobs)
        dispatcher = QueueDispatcher(tmp_path / "q")
        outcomes = compile_jobs(jobs, PulseCache(), dispatcher)
        info = dispatcher.describe()
        assert outcomes_identical(outcomes, expected)
        assert info["inline_jobs"] == 2
        assert info["dispatched_jobs"] == 0
        assert info["live_workers"] == 0

    def test_a_registered_worker_gets_the_tasks(self, tmp_path):
        """A worker draining the directory is the fleet: the dispatcher
        starts none of its own."""
        dispatcher = QueueDispatcher(tmp_path / "q", poll_s=0.01)
        worker = FleetWorker(tmp_path / "q", poll_s=0.01)
        thread = threading.Thread(target=worker.run)
        thread.start()
        try:
            assert _wait_for(lambda: dispatcher.queue.live_workers() == 1)
            assert dispatcher.run_tasks(abs, [-1, -2, -3]) == [1, 2, 3]
        finally:
            worker._drain.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        info = dispatcher.describe()
        assert info["dispatched_jobs"] == 3
        assert info["inline_jobs"] == 0
        assert worker.jobs_done == 3
        # The worker's "exited" beat takes it out of the count.
        assert info["live_workers"] == 0

    def test_empty_dispatch_is_a_noop(self, tmp_path):
        dispatcher = QueueDispatcher(tmp_path / "q")
        assert dispatcher.run_tasks(search_job, []) == []
        assert dispatcher.describe()["inline_jobs"] == 0

    def test_map_runs_in_calling_process(self, tmp_path):
        dispatcher = QueueDispatcher(tmp_path / "q")
        assert dispatcher.map(lambda x: x * x, range(4)) == [0, 1, 4, 9]
        assert dispatcher.describe()["dispatched_jobs"] == 0


class TestLiveWorkers:
    def _beat(self, queue, worker_id, **fields):
        record = {
            "worker": worker_id,
            "pid": os.getpid(),
            "host": queue.host,
            "updated_at": time.time(),
            "state": "idle",
            "jobs_done": 0,
            **fields,
        }
        (queue.workers_dir / f"{worker_id}.json").write_text(json.dumps(record))

    def test_counts_workers_that_are_neither_exited_nor_dead(self, tmp_path):
        queue = FleetQueue(tmp_path, lease_ttl_s=5.0)
        self._beat(queue, "idle")
        self._beat(queue, "busy", state="compiling:job", updated_at=time.time() - 4)
        self._beat(queue, "remote", host="elsewhere")
        assert queue.live_workers() == 3

    def test_exited_dead_and_silent_workers_do_not_count(self, tmp_path):
        queue = FleetQueue(tmp_path, lease_ttl_s=5.0)
        dead = subprocess.Popen([sys.executable, "-c", "pass"])
        dead.wait()
        self._beat(queue, "exited", state="exited")
        self._beat(queue, "killed", pid=dead.pid)
        self._beat(queue, "silent", host="elsewhere", updated_at=time.time() - 6)
        assert queue.live_workers() == 0

    def test_gone_records_older_than_the_ttl_are_pruned(self, tmp_path):
        """Exited or dead workers silent for more than one lease TTL leave
        the directory; a just-exited worker is still listed as exited."""
        queue = FleetQueue(tmp_path, lease_ttl_s=5.0)
        dead = subprocess.Popen([sys.executable, "-c", "pass"])
        dead.wait()
        old = time.time() - 6
        self._beat(queue, "idle")
        self._beat(queue, "just-exited", state="exited")
        self._beat(queue, "old-exited", state="exited", updated_at=old)
        self._beat(queue, "old-killed", pid=dead.pid, updated_at=old)
        self._beat(queue, "old-silent", host="elsewhere", updated_at=old)
        assert queue.live_workers() == 1
        remaining = sorted(path.stem for path in queue.workers_dir.glob("*.json"))
        assert remaining == ["idle", "just-exited"]

        self._beat(queue, "old-exited", state="exited", updated_at=old)
        workers = {entry["worker"]: entry for entry in queue.status()["workers"]}
        assert sorted(workers) == ["idle", "just-exited"]
        assert workers["just-exited"]["state"] == "exited"

    def test_a_worker_is_judged_by_its_own_ttl(self, tmp_path):
        """A worker whose TTL is longer than the dispatcher's queue default
        beats every third of it while it runs a job; 35 s after its last
        beat it is still live to a dispatcher, and its record is kept."""
        worker = FleetWorker(tmp_path, lease_ttl_s=120.0, host_label="simhost")
        worker._beat("compiling:job")
        path = tmp_path / "workers" / f"{worker.worker_id}.json"
        record = json.loads(path.read_text())
        record["updated_at"] = time.time() - 35
        path.write_text(json.dumps(record))
        dispatcher = QueueDispatcher(tmp_path)
        assert dispatcher.queue.lease_ttl_s == 30.0
        assert dispatcher.queue.live_workers() == 1
        assert dispatcher.describe()["live_workers"] == 1
        assert path.exists()
        # A record without a TTL falls back to the queue's default.
        self._beat(
            dispatcher.queue, "no-ttl", host="simhost", updated_at=time.time() - 35
        )
        assert dispatcher.queue.live_workers() == 1
        assert not (tmp_path / "workers" / "no-ttl.json").exists()

    def test_status_counts_workers_by_the_live_rule(self, tmp_path):
        """``status()`` agrees with ``live_workers()``: a fresh beat from a
        dead pid on this host is neither live nor ``active``."""
        queue = FleetQueue(tmp_path, lease_ttl_s=5.0)
        dead = subprocess.Popen([sys.executable, "-c", "pass"])
        dead.wait()
        self._beat(queue, "killed", pid=dead.pid)
        assert queue.live_workers() == 0
        status = queue.status()
        assert status["hosts"][queue.host]["active"] == 0
        assert status["hosts"][queue.host]["workers"] == 1
        assert status["live_workers"] == 0
        [entry] = status["workers"]
        assert entry["live"] is False and entry["state"] == "idle"

        self._beat(queue, "idle")
        status = queue.status()
        assert status["live_workers"] == queue.live_workers() == 1
        assert status["hosts"][queue.host]["active"] == 1

    def test_a_busy_worker_keeps_beating(self, tmp_path):
        """A job longer than the lease TTL does not make its worker look
        gone: the lease renewer refreshes the worker heartbeat too."""
        worker = FleetWorker(tmp_path, lease_ttl_s=0.15, host_label="simhost")
        beats: list = []
        worker._beat = beats.append
        job_id = worker.queue.enqueue((_slow_identity, 1, "ci"))
        worker._run_one(job_id, worker.queue.claim(worker.worker_id)[1])
        assert beats and all(beat == f"compiling:{job_id}" for beat in beats)


class TestFleetDispatch:
    def test_two_workers_bit_identical_and_exactly_once(
        self, tmp_path, job_factory, outcomes_identical, fleet_workers
    ):
        """The milestone-1 acceptance shape: one batch's unique blocks split
        across 2 workers, outcomes bit-identical to serial in-process, each
        block searched exactly once across the fleet."""
        angles = (0.2, 0.5, 0.8, 1.1)
        jobs = [job_factory(a) for a in angles]
        expected = _serial(jobs)
        fleet_workers(tmp_path / "q", 2)
        dispatcher = QueueDispatcher(tmp_path / "q", poll_s=0.02)
        outcomes = compile_jobs(jobs, PulseCache(), dispatcher)
        info = dispatcher.describe()
        assert outcomes_identical(outcomes, expected)
        assert info["live_workers"] == 2
        assert info["dispatched_jobs"] == len(jobs)
        assert info["completed_jobs"] == len(jobs)
        # Exactly once: the per-worker completion counts account for every
        # job with none double-searched.
        assert sum(info["completions_by_worker"].values()) == len(jobs)
        # Afterwards the queue directory is fully drained.
        assert dispatcher.queue.status()["pending_jobs"] == 0
        assert dispatcher.queue.status()["leased_jobs"] == 0

    def test_worker_counts_come_home(
        self, tmp_path, job_factory, block_compiler, same_search, fleet_workers
    ):
        """A seeded search run by a worker moves this process's warm-start
        counters exactly as running it here does."""
        job = job_factory(0.45)
        seed = block_compiler._find_seed(
            job.key,
            job.target,
            build_control_set(job.device, job.device_qubits),
            job.gate_based_ns,
        )
        assert seed is not None  # two-qubit blocks get a KAK seed
        job = replace(job, seed=seed)
        perf = get_perf_registry()
        with perf.counts_moved() as inline_counts:
            inline = search_job(job)
        fleet_workers(tmp_path / "q", 1)
        dispatcher = QueueDispatcher(tmp_path / "q", poll_s=0.02)
        with perf.counts_moved() as fleet_counts:
            [remote] = dispatcher.run_tasks(search_job, [job])
        assert dispatcher.describe()["completed_jobs"] == 1
        assert same_search(remote, inline)
        assert inline_counts["grape.warm_start.seeded_iterations"] > 0
        assert fleet_counts == inline_counts

    def test_worker_failure_raises_pipeline_error(
        self, tmp_path, job_factory, fleet_workers
    ):
        job = job_factory(0.4)
        job.device_qubits = (5, 7)  # off the 2-qubit device: search raises
        fleet_workers(tmp_path / "q", 1)
        dispatcher = QueueDispatcher(tmp_path / "q", poll_s=0.02)
        with pytest.raises(PipelineError, match="failed job"):
            dispatcher.run_tasks(search_job, [job])

    def test_killed_worker_leaves_the_fleet(
        self, tmp_path, job_factory, outcomes_identical, fleet_workers
    ):
        """A worker killed between two dispatches no longer counts: the
        next dispatch runs inline instead of waiting on a dead fleet."""
        jobs = [job_factory(0.2), job_factory(0.7)]
        expected = _serial(jobs)
        [proc] = fleet_workers(tmp_path / "q", 1)
        dispatcher = QueueDispatcher(tmp_path / "q", poll_s=0.02)
        first = compile_jobs(jobs[:1], PulseCache(), dispatcher)
        proc.kill()
        proc.wait()
        second = compile_jobs(jobs[1:], PulseCache(), dispatcher)
        info = dispatcher.describe()
        assert outcomes_identical(first + second, expected)
        assert info["completed_jobs"] == 1
        assert info["inline_jobs"] == 1
        assert info["live_workers"] == 0

    def test_every_worker_leaving_raises(self, tmp_path, monkeypatch, job_factory):
        """Jobs enqueued for a fleet that then loses its last worker
        cannot wedge the dispatch: it reports at once."""
        dispatcher = QueueDispatcher(tmp_path / "q", poll_s=0.01)
        counts = iter([1, 0])
        monkeypatch.setattr(dispatcher.queue, "live_workers", lambda: next(counts))
        with pytest.raises(PipelineError, match="every fleet worker left"):
            dispatcher.run_tasks(search_job, [job_factory(0.3)])

    def test_no_progress_timeout_raises(self, tmp_path, job_factory):
        """A fleet that looks alive but never completes anything must hit
        the no-progress deadline and report, not hang forever."""
        dispatcher = QueueDispatcher(
            tmp_path / "q", poll_s=0.01, job_timeout_s=0.2
        )
        # Sabotage the fleet: the dispatcher believes one worker is alive,
        # but nothing ever drains the queue.
        dispatcher.queue.live_workers = lambda: 1
        with pytest.raises(PipelineError, match="no progress"):
            dispatcher.run_tasks(search_job, [job_factory(0.3)])
