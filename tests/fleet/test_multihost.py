"""Multi-host fleet semantics over one shared queue directory.

CI has one machine, so distinct hosts are simulated with the
``--host-label`` override — which deliberately also disables the
same-host dead-pid probe, giving these tests the *real* cross-host
failure semantics (pure lease-TTL reclaim).  Covered here:

* a two-"host" soak: workers on simulated hosts drain one queue, every
  job completes exactly once, and ``status()["hosts"]`` groups the
  leases/workers per host with the registration every beat carries;
* cross-host crash handling: a kill -9'd claim holder on another host is
  *not* reclaimed by pid probing, only by lease-TTL expiry;
* the ``fleet status --json`` CLI view of the same snapshot.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import repro
from repro.cli import main
from repro.fleet.queue import FleetQueue
from repro.fleet.worker import spawn_worker

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


class TestMultiHostSoak:
    def test_two_simulated_hosts_drain_one_queue(self, tmp_path, task_factory):
        queue = FleetQueue(tmp_path)
        job_ids = [queue.enqueue(task_factory(0.1 * k)) for k in range(1, 7)]

        workers = [
            _spawn_worker(
                tmp_path,
                "--host-label", f"simhost-{tag}",
                "--worker-id", f"w-{tag}",
                "--idle-exit", "0.5",
            )
            for tag in ("a", "b")
        ]
        try:
            for proc in workers:
                assert proc.wait(timeout=300) == 0
        finally:
            for proc in workers:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()

        # Every job completed exactly once, none abandoned.
        records = [queue.consume_result(job_id) for job_id in job_ids]
        assert all(r is not None and r["error"] is None for r in records)
        assert list(queue.jobs_dir.glob("*.job")) == []
        assert list(queue.leases_dir.glob("*.json")) == []

        status = queue.status()
        hosts = status["hosts"]
        assert set(hosts) == {"simhost-a", "simhost-b"}
        assert sum(entry["jobs_done"] for entry in hosts.values()) == 6
        for host, entry in hosts.items():
            assert entry["workers"] == 1
            assert entry["active"] == 0  # both signed off as exited
        assert status["live_workers"] == 0
        # The registration rode along on every heartbeat.
        for worker in status["workers"]:
            assert worker["version"] == repro.__version__
            assert worker["lease_ttl_s"] == 30.0
            assert worker["heartbeat_s"] > 0
            assert worker["started_at"] > 0
            assert worker["host"].startswith("simhost-")

    def test_completions_attributed_to_both_worker_ids(self, tmp_path, task_factory):
        """With one deliberately slow-start host, attribution still lands
        on whichever worker did the job — by worker id, host included."""
        queue = FleetQueue(tmp_path)
        job_id = queue.enqueue(task_factory(0.35))
        proc = _spawn_worker(
            tmp_path, "--host-label", "lonely", "--max-jobs", "1"
        )
        assert proc.wait(timeout=300) == 0
        record = queue.consume_result(job_id)
        assert record is not None
        assert record["worker"] == "lonely-" + str(proc.pid)


class TestCrossHostReclaim:
    #: Claim the first job from a simulated remote host, then hang.
    _HOLDER = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); "
        "from repro.fleet.queue import FleetQueue; "
        "queue = FleetQueue(sys.argv[2], lease_ttl_s=1.5, host_label='simhost-a'); "
        "assert queue.claim('remote-holder') is not None; "
        "print('claimed', flush=True); "
        "time.sleep(600)"
    )

    def test_dead_pid_on_another_host_waits_for_ttl(self, tmp_path, task_factory):
        queue = FleetQueue(tmp_path, lease_ttl_s=1.5, host_label="simhost-b")
        queue.enqueue(task_factory(0.55))

        holder = subprocess.Popen(
            [sys.executable, "-c", self._HOLDER, str(SRC_ROOT), str(tmp_path)],
            stdout=subprocess.PIPE,
        )
        try:
            assert holder.stdout.readline().strip() == b"claimed"
            holder.kill()
            holder.wait(timeout=30)
            # The holder's pid is provably dead on this box, but the lease
            # says host simhost-a — cross-host rules apply, so the claim
            # must NOT be handed over before the TTL runs out.
            assert queue.claim("w-b") is None
            claimed = None
            deadline = time.monotonic() + 30
            while claimed is None and time.monotonic() < deadline:
                claimed = queue.claim("w-b")
                time.sleep(0.05)
            assert claimed is not None
            job_id, _job = claimed
            lease = json.loads(
                (queue.leases_dir / f"{job_id}.json").read_text()
            )
            assert lease["reclaims"] == 1
            assert lease["host"] == "simhost-b"
            assert lease["worker"] == "w-b"
        finally:
            if holder.poll() is None:
                holder.kill()
                holder.wait()


class TestFleetStatusCli:
    def _populate(self, tmp_path) -> None:
        queue_a = FleetQueue(tmp_path, host_label="simhost-a")
        queue_b = FleetQueue(tmp_path, host_label="simhost-b")
        queue_a.enqueue("job-one")
        queue_a.enqueue("job-two")
        assert queue_a.claim("w-a") is not None
        queue_a.write_worker_heartbeat(
            "w-a", "busy", 3, extra={"version": "x"}
        )
        queue_b.write_worker_heartbeat("w-b", "idle", 2)

    def test_json_snapshot_groups_by_host(self, capsys, tmp_path):
        self._populate(tmp_path)
        assert main(["fleet", "status", "--dir", str(tmp_path), "--json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["pending_jobs"] == 2
        assert snapshot["leased_jobs"] == 1
        hosts = snapshot["hosts"]
        assert hosts["simhost-a"]["jobs_done"] == 3
        assert hosts["simhost-a"]["leases"] == 1
        assert hosts["simhost-b"]["workers"] == 1
        assert hosts["simhost-b"]["active"] == 1
        assert snapshot["live_workers"] == 2

    def test_text_mode_shows_host_rows_and_registration(
        self, capsys, tmp_path
    ):
        self._populate(tmp_path)
        assert main(["fleet", "status", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "host simhost-a" in out
        assert "host simhost-b" in out
        assert "version=x" in out and "ttl=30.0s" in out
        assert "host=simhost-a" in out

    def test_json_on_missing_dir_is_an_empty_snapshot(self, capsys, tmp_path):
        missing = tmp_path / "nope"
        assert main(["fleet", "status", "--dir", str(missing), "--json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["pending_jobs"] == 0
        assert snapshot["hosts"] == {}
        assert not missing.exists()
