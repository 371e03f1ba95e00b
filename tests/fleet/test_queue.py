"""FleetQueue contracts: lifecycle, lease reclaim, and poison pills.

The queue itself is payload-agnostic (it pickles whatever it is given),
so these tests use plain strings as jobs and reserve real BlockJobs for
the worker/dispatcher tests.
"""

from __future__ import annotations

import json
import platform
import subprocess
import sys
import time

from repro.fleet.queue import FLEET_SCHEMA_VERSION, FleetQueue


class TestLifecycle:
    def test_enqueue_claim_complete_roundtrip(self, tmp_path):
        queue = FleetQueue(tmp_path)
        job_id = queue.enqueue("payload")
        assert (queue.jobs_dir / f"{job_id}.job").exists()

        claimed = queue.claim("w1")
        assert claimed == (job_id, "payload")
        assert (queue.leases_dir / f"{job_id}.json").exists()

        queue.complete(job_id, {"job_id": job_id, "outcome": "done"})
        assert not (queue.jobs_dir / f"{job_id}.job").exists()
        assert not (queue.leases_dir / f"{job_id}.json").exists()
        assert queue.consume_result(job_id) == {
            "job_id": job_id,
            "outcome": "done",
        }

    def test_claim_on_empty_queue_returns_none(self, tmp_path):
        assert FleetQueue(tmp_path).claim("w1") is None

    def test_claims_hand_out_jobs_fifo(self, tmp_path):
        queue = FleetQueue(tmp_path)
        ids = [queue.enqueue(f"job-{i}") for i in range(3)]
        claimed = [queue.claim("w1")[0] for _ in range(3)]
        assert claimed == ids

    def test_fresh_lease_is_not_reclaimable(self, tmp_path):
        queue = FleetQueue(tmp_path, lease_ttl_s=300.0)
        queue.enqueue("payload")
        assert queue.claim("w1") is not None
        # The lease's pid (this process) is alive and the heartbeat is
        # fresh, so nobody else may steal the job.
        assert FleetQueue(tmp_path, lease_ttl_s=300.0).claim("w2") is None

    def test_consume_result_is_claim_and_remove(self, tmp_path):
        queue = FleetQueue(tmp_path)
        job_id = queue.enqueue("payload")
        assert queue.consume_result(job_id) is None
        queue.claim("w1")
        queue.complete(job_id, {"outcome": 42})
        assert queue.consume_result(job_id) == {"outcome": 42}
        assert queue.consume_result(job_id) is None

    def test_status_counts_everything(self, tmp_path):
        queue = FleetQueue(tmp_path)
        queue.enqueue("a")
        leased_id = queue.enqueue("b")
        done_id = queue.enqueue("c")
        # Claim order is FIFO: "a" first, then "b".
        first_id, _ = queue.claim("w1")
        queue.claim("w1")
        queue.complete(done_id, {"outcome": "done"})
        queue.complete(first_id, {"outcome": "done"})
        queue.write_worker_heartbeat("w1", "idle", 2)

        status = queue.status()
        assert status["pending_jobs"] == 1  # only "b" remains queued
        assert status["leased_jobs"] == 1
        assert status["completed_results"] == 2
        assert [lease["job_id"] for lease in status["leases"]] == [leased_id]
        assert status["leases"][0]["stale"] is False
        assert status["workers"][0]["worker"] == "w1"
        assert status["workers"][0]["jobs_done"] == 2


class TestCrashReclaim:
    def test_expired_heartbeat_lease_is_reclaimed(self, tmp_path):
        queue = FleetQueue(tmp_path, lease_ttl_s=0.05)
        job_id = queue.enqueue("payload")
        assert queue.claim("w1") is not None
        # Fake a remote host: the dead-pid shortcut must not apply, so the
        # reclaim below proves the heartbeat TTL path.
        lease_path = queue.leases_dir / f"{job_id}.json"
        lease = json.loads(lease_path.read_text())
        lease["host"] = "elsewhere"
        lease_path.write_text(json.dumps(lease))

        time.sleep(0.15)
        reclaimed = queue.claim("w2")
        assert reclaimed == (job_id, "payload")
        assert json.loads(lease_path.read_text())["reclaims"] == 1

    def test_heartbeat_keeps_the_lease(self, tmp_path):
        queue = FleetQueue(tmp_path, lease_ttl_s=0.3)
        job_id = queue.enqueue("payload")
        assert queue.claim("w1") is not None
        before = json.loads(
            (queue.leases_dir / f"{job_id}.json").read_text()
        )["heartbeat_at"]
        time.sleep(0.05)
        queue.heartbeat(job_id)
        after = json.loads(
            (queue.leases_dir / f"{job_id}.json").read_text()
        )["heartbeat_at"]
        assert after > before

    def test_dead_pid_on_this_host_reclaims_immediately(self, tmp_path):
        """The ``kill -9`` case: a lease whose pid is gone is stale at once,
        even with a fresh heartbeat and an enormous TTL."""
        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait()
        queue = FleetQueue(tmp_path, lease_ttl_s=3600.0)
        job_id = queue.enqueue("payload")
        now = time.time()
        (queue.leases_dir / f"{job_id}.json").write_text(
            json.dumps(
                {
                    "job_id": job_id,
                    "worker": "ghost",
                    "pid": proc.pid,
                    "host": platform.node(),
                    "acquired_at": now,
                    "heartbeat_at": now,
                    "ttl_s": 3600.0,
                    "reclaims": 0,
                }
            )
        )
        reclaimed = queue.claim("rescuer")
        assert reclaimed == (job_id, "payload")
        lease = json.loads((queue.leases_dir / f"{job_id}.json").read_text())
        assert lease["worker"] == "rescuer"
        assert lease["reclaims"] == 1

    def test_completed_job_left_behind_is_retired_not_redone(self, tmp_path):
        """Crash between the record write and the job unlink: the next claim
        finishes the retirement instead of handing the work out again."""
        queue = FleetQueue(tmp_path)
        job_id = queue.enqueue("payload")
        (queue.results_dir / f"{job_id}.json").write_text(
            json.dumps({"job_id": job_id, "outcome": "done"})
        )
        assert queue.claim("w1") is None
        assert not (queue.jobs_dir / f"{job_id}.job").exists()
        assert queue.consume_result(job_id) == {
            "job_id": job_id,
            "outcome": "done",
        }


class TestPoisonPills:
    def test_unreadable_payload_completes_with_error(self, tmp_path):
        queue = FleetQueue(tmp_path)
        (queue.jobs_dir / "0-bad-0001.job").write_bytes(b"not a pickle")
        assert queue.claim("w1") is None
        record = queue.consume_result("0-bad-0001")
        assert record["result"] is None
        assert "unreadable job payload" in record["error"]
        assert not (queue.jobs_dir / "0-bad-0001.job").exists()

    def test_wrong_schema_version_completes_with_error(self, tmp_path):
        import pickle

        queue = FleetQueue(tmp_path)
        job_id = queue.enqueue("payload")
        (queue.jobs_dir / f"{job_id}.job").write_bytes(
            pickle.dumps(
                {"schema_version": FLEET_SCHEMA_VERSION + 1, "job": "payload"}
            )
        )
        assert queue.claim("w1") is None
        record = queue.consume_result(job_id)
        assert record["result"] is None
        assert "schema" in record["error"]

    def test_poison_pill_does_not_wedge_later_jobs(self, tmp_path):
        queue = FleetQueue(tmp_path)
        (queue.jobs_dir / "0-bad-0001.job").write_bytes(b"garbage")
        good_id = queue.enqueue("good")
        # One claim pass retires the pill and hands out the good job.
        assert queue.claim("w1") == (good_id, "good")
