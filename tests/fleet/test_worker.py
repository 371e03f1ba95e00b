"""FleetWorker robustness: real worker processes against a real queue.

The satellite contracts under test:

* a worker runs real block searches and exits cleanly under
  ``--max-jobs`` with results bit-identical to running them in-process,
  and ships back the ``repro.perf`` counts each one moved;
* SIGTERM drains the in-flight job to a completion record before exit;
* a ``kill -9``'d claim holder's lease is reclaimed (with the reclaim
  counted) even though its heartbeat was fresh and its TTL enormous.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.fleet import FleetWorker
from repro.fleet.queue import FleetQueue, pack_result, unpack_result
from repro.fleet.worker import spawn_worker
from repro.perf import get_perf_registry

SRC_ROOT = Path(repro.__file__).resolve().parent.parent


def _spawn_worker(fleet_dir, *extra_args) -> subprocess.Popen:
    return spawn_worker(
        fleet_dir,
        "--poll",
        "0.05",
        *extra_args,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _wait_for(predicate, timeout: float = 120.0, interval: float = 0.02) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestHeartbeat:
    @pytest.mark.parametrize(
        "lease_ttl_s,heartbeat_s",
        [(30.0, 10.0), (9.0, 3.0), (0.06, 0.05)],
        ids=["default-ttl", "short-ttl", "floor"],
    )
    def test_lease_is_renewed_three_times_per_ttl(
        self, tmp_path, lease_ttl_s, heartbeat_s
    ):
        """Three missed beats make a lease stale; the interval never drops
        under 50 ms however short the TTL."""
        worker = FleetWorker(tmp_path, lease_ttl_s=lease_ttl_s)
        assert worker.heartbeat_s == pytest.approx(heartbeat_s)
        # Every beat carries both, so readers judge the worker by its TTL.
        worker._beat("idle")
        record = json.loads(
            (tmp_path / "workers" / f"{worker.worker_id}.json").read_text()
        )
        assert record["heartbeat_s"] == worker.heartbeat_s
        assert record["lease_ttl_s"] == lease_ttl_s


class TestWorkerLoop:
    def test_compiles_one_job_and_exits(self, tmp_path, task_factory, same_search):
        queue = FleetQueue(tmp_path)
        task = task_factory(0.3)
        job_id = queue.enqueue(task)

        proc = _spawn_worker(tmp_path, "--max-jobs", 1, "--worker-id", "w1")
        assert proc.wait(timeout=180) == 0

        record = queue.consume_result(job_id)
        assert record is not None
        assert record["error"] is None
        assert record["worker"] == "w1"
        assert record["wall_time_s"] > 0
        # Bit-identity across the process boundary: the worker's result
        # equals the in-process search of the same job, and the counts it
        # moved ride along.
        fn, job, _ = task
        with get_perf_registry().counts_moved() as counts:
            inline = fn(job)
        assert same_search(unpack_result(record["result"]), inline)
        assert record["counts"] == counts
        # The queue is fully retired and the worker signed off.
        assert list(queue.jobs_dir.glob("*.job")) == []
        assert list(queue.leases_dir.glob("*.json")) == []
        heartbeat = json.loads((queue.workers_dir / "w1.json").read_text())
        assert heartbeat["state"] == "exited"
        assert heartbeat["jobs_done"] == 1

    def test_idle_exit_with_empty_queue(self, tmp_path):
        proc = _spawn_worker(tmp_path, "--idle-exit", 0.2)
        assert proc.wait(timeout=60) == 0
        assert FleetQueue(tmp_path).status()["pending_jobs"] == 0


class TestSigtermDrain:
    def test_sigterm_drains_inflight_job(self, tmp_path, task_factory):
        queue = FleetQueue(tmp_path)
        job_id = queue.enqueue(task_factory(0.7))

        proc = _spawn_worker(tmp_path)
        try:
            # SIGTERM the moment the lease lands — almost always mid-GRAPE.
            assert _wait_for(
                lambda: (queue.leases_dir / f"{job_id}.json").exists()
                or (queue.results_dir / f"{job_id}.json").exists()
            )
            proc.terminate()
            assert proc.wait(timeout=180) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

        # The in-flight job drained to a real completion record; nothing
        # was abandoned mid-lease.
        record = queue.consume_result(job_id)
        assert record is not None and record["error"] is None
        assert list(queue.jobs_dir.glob("*.job")) == []
        assert list(queue.leases_dir.glob("*.json")) == []

    def test_sigterm_while_idle_exits_promptly(self, tmp_path):
        queue = FleetQueue(tmp_path)
        proc = _spawn_worker(tmp_path)
        try:
            assert _wait_for(
                lambda: list(queue.workers_dir.glob("*.json")) != []
            )
            proc.terminate()
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


class TestKillNineReclaim:
    #: A claim holder that leases the first job and then hangs forever —
    #: the deterministic stand-in for a worker dying mid-compile.
    _HOLDER = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); "
        "from repro.fleet.queue import FleetQueue; "
        "queue = FleetQueue(sys.argv[2]); "
        "assert queue.claim('holder') is not None; "
        "print('claimed', flush=True); "
        "time.sleep(600)"
    )

    def test_killed_holders_lease_is_reclaimed_and_completed(
        self, tmp_path, task_factory
    ):
        queue = FleetQueue(tmp_path, lease_ttl_s=3600.0)
        job_id = queue.enqueue(task_factory(0.5))

        proc = subprocess.Popen(
            [sys.executable, "-c", self._HOLDER, str(SRC_ROOT), str(tmp_path)],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            assert proc.stdout.readline().strip() == "claimed"
        finally:
            proc.kill()
            proc.wait()

        # The holder's pid is dead on this host, so the lease is stale
        # immediately — no TTL wait — and the reclaim is counted.
        claimed = queue.claim("rescuer")
        assert claimed is not None and claimed[0] == job_id
        lease = json.loads((queue.leases_dir / f"{job_id}.json").read_text())
        assert lease["worker"] == "rescuer"
        assert lease["reclaims"] >= 1

        # The rescuer finishes the job: at-least-once delivery converges.
        fn, job, _ = claimed[1]
        queue.complete(
            job_id,
            {
                "job_id": job_id,
                "worker": "rescuer",
                "result": pack_result(fn(job)),
                "error": None,
                "wall_time_s": 0.0,
            },
        )
        assert queue.consume_result(job_id)["error"] is None
        assert list(queue.leases_dir.glob("*.json")) == []


class TestForeignPreset:
    def test_worker_under_another_preset_returns_identical_pulses(
        self, tmp_path, same_search
    ):
        """A search enqueued under ``ci`` and run by a worker whose process
        came up under ``paper`` (as ``REPRO_PRESET=paper`` would set it)
        returns the pulses of an inline search, bit for bit."""
        from repro.circuits.circuit import QuantumCircuit
        from repro.config import get_preset, set_preset
        from repro.core import PulseCache
        from repro.core.compiler import BlockPulseCompiler, search_job
        from repro.fleet.worker import FleetWorker
        from repro.pulse.device import GmonDevice
        from repro.pulse.grape.engine import GrapeHyperparameters, GrapeSettings
        from repro.transpile.topology import line_topology

        original = get_preset().name
        try:
            set_preset("ci")
            # The iteration budget is left to the preset, so running under
            # the wrong one would change the search.
            compiler = BlockPulseCompiler(
                GmonDevice(line_topology(2)),
                GrapeSettings(dt_ns=0.5, target_fidelity=0.95),
                GrapeHyperparameters(0.05, 0.002),
                PulseCache(),
            )
            block = QuantumCircuit(2).h(0).cx(0, 1).rz(0.7, 1)
            job = compiler.make_job(block, (0, 1))
            inline = search_job(job)

            set_preset("paper")
            queue = FleetQueue(tmp_path)
            job_id = queue.enqueue((search_job, job, "ci"))
            worker = FleetWorker(tmp_path, poll_s=0.01, max_jobs=1)
            assert worker.run() == 0
            record = queue.consume_result(job_id)
        finally:
            set_preset(original)
        assert record["error"] is None
        assert same_search(unpack_result(record["result"]), inline)
