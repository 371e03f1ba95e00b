"""FleetWorker robustness: real worker processes against a real queue.

The satellite contracts under test:

* a worker completes real BlockJobs and exits cleanly under ``--max-jobs``
  with results bit-identical to in-process compilation;
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

import repro
from repro.core import PulseCache
from repro.fleet.dispatcher import _WORKER_BOOTSTRAP
from repro.fleet.queue import FleetQueue
from repro.pipeline.jobs import _encode_outcome, run_block_job

SRC_ROOT = Path(repro.__file__).resolve().parent.parent


def _spawn_worker(fleet_dir, *extra_args) -> subprocess.Popen:
    cmd = [
        sys.executable,
        "-c",
        _WORKER_BOOTSTRAP,
        str(SRC_ROOT),
        "worker",
        "--fleet-dir",
        str(fleet_dir),
        "--poll",
        "0.05",
        *map(str, extra_args),
    ]
    return subprocess.Popen(
        cmd, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
    )


def _wait_for(predicate, timeout: float = 120.0, interval: float = 0.02) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestWorkerLoop:
    def test_compiles_one_job_and_exits(self, tmp_path, job_factory):
        queue = FleetQueue(tmp_path)
        job = job_factory(0.3)
        job_id = queue.enqueue(job)

        proc = _spawn_worker(tmp_path, "--max-jobs", 1, "--worker-id", "w1")
        assert proc.wait(timeout=180) == 0

        record = queue.consume_result(job_id)
        assert record is not None
        assert record["error"] is None
        assert record["worker"] == "w1"
        assert record["wall_time_s"] > 0
        # Bit-identity across the process boundary: the worker's encoded
        # outcome equals the in-process compile of the same job.
        expected = _encode_outcome(run_block_job(job, cache=PulseCache()))
        assert record["outcome"] == expected
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
    def test_sigterm_drains_inflight_job(self, tmp_path, job_factory):
        queue = FleetQueue(tmp_path)
        job_id = queue.enqueue(job_factory(0.7))

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
        self, tmp_path, job_factory
    ):
        queue = FleetQueue(tmp_path, lease_ttl_s=3600.0)
        job_id = queue.enqueue(job_factory(0.5))

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
        outcome = run_block_job(claimed[1], cache=PulseCache())
        queue.complete(
            job_id,
            {
                "job_id": job_id,
                "worker": "rescuer",
                "outcome": _encode_outcome(outcome),
                "error": None,
                "wall_time_s": 0.0,
            },
        )
        assert queue.consume_result(job_id)["error"] is None
        assert list(queue.leases_dir.glob("*.json")) == []


class TestForeignPreset:
    def test_worker_under_another_preset_returns_identical_pulses(self, tmp_path):
        """A job built under ``ci`` and run by a worker whose process came
        up under ``paper`` (as ``REPRO_PRESET=paper`` would set it) returns
        the pulses of an inline compile, bit for bit."""
        from repro.circuits.circuit import QuantumCircuit
        from repro.config import get_preset, set_preset
        from repro.core.compiler import BlockPulseCompiler
        from repro.fleet.worker import FleetWorker
        from repro.pipeline.jobs import _decode_outcome
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
                warm_start=False,
            )
            block = QuantumCircuit(2).h(0).cx(0, 1).rz(0.7, 1)
            job = compiler.make_job(block, (0, 1))
            assert job.preset == "ci"
            inline = run_block_job(job, cache=PulseCache())

            set_preset("paper")
            queue = FleetQueue(tmp_path)
            job_id = queue.enqueue(job)
            worker = FleetWorker(tmp_path, poll_s=0.01, max_jobs=1)
            assert worker.run() == 0
            record = queue.consume_result(job_id)
        finally:
            set_preset(original)
        assert record["error"] is None
        remote = _decode_outcome(record["outcome"])
        assert remote.schedule.controls.tobytes() == inline.schedule.controls.tobytes()
        assert remote.duration_ns == inline.duration_ns
        assert remote.iterations == inline.iterations
