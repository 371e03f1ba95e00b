"""Idle fleet polls back off from 1 ms up to ``poll_s``, and reset when work
moves.  The waits are read from a patched ``time.sleep`` /
``Event.wait``, never from the wall clock."""

from __future__ import annotations

from repro.fleet import QueueDispatcher
from repro.fleet import dispatcher as dispatcher_module
from repro.fleet.queue import FIRST_POLL_S, PollBackoff, pack_result
from repro.fleet.worker import FleetWorker


def _doubling(count: int, ceiling: float) -> list:
    waits, delay = [], FIRST_POLL_S
    for _ in range(count):
        waits.append(delay)
        delay = min(2 * delay, ceiling)
    return waits


class TestPollBackoff:
    def test_doubles_to_the_ceiling_and_resets(self):
        backoff = PollBackoff(0.05)
        waits = [backoff.next() for _ in range(8)]
        assert waits == [0.001, 0.002, 0.004, 0.008, 0.016, 0.032, 0.05, 0.05]
        backoff.reset()
        assert backoff.next() == FIRST_POLL_S

    def test_ceiling_below_the_first_wait_caps_it(self):
        backoff = PollBackoff(0.0005)
        assert [backoff.next() for _ in range(3)] == [0.0005] * 3


class _ScriptedQueue:
    """A queue whose ``i``-th job (in enqueue order) completes after
    ``empty_polls[i]`` empty ``consume_result`` calls for it."""

    def __init__(self, empty_polls):
        self.empty_polls = list(empty_polls)
        self.tasks: dict = {}
        self.polls: dict = {}

    def enqueue(self, task) -> str:
        job_id = f"job{len(self.tasks)}"
        self.tasks[job_id] = task
        self.polls[job_id] = 0
        return job_id

    def consume_result(self, job_id):
        index = list(self.tasks).index(job_id)
        if self.polls[job_id] < self.empty_polls[index]:
            self.polls[job_id] += 1
            return None
        fn, item, _preset = self.tasks[job_id]
        return {"result": pack_result(fn(item)), "counts": {}, "worker": "w"}

    def live_workers(self) -> int:
        return 1


def _square(x):
    return x * x


class TestDispatcherBackoff:
    def test_completion_scans_back_off_and_reset_after_each_result(
        self, tmp_path, monkeypatch
    ):
        sleeps: list = []
        monkeypatch.setattr(dispatcher_module.time, "sleep", sleeps.append)
        dispatcher = QueueDispatcher(tmp_path / "q", poll_s=0.05)
        # job0 answers on the 8th scan; job1, polled in every scan, on the
        # 12th.
        dispatcher.queue = _ScriptedQueue([7, 11])
        assert dispatcher.run_tasks(_square, [3, 4]) == [9, 16]
        # Seven empty scans, a result (reset), three more empty scans.
        assert sleeps == _doubling(7, 0.05) + _doubling(3, 0.05)

    def test_each_call_starts_from_the_first_wait(self, tmp_path, monkeypatch):
        """A new enqueue starts the backoff afresh."""
        sleeps: list = []
        monkeypatch.setattr(dispatcher_module.time, "sleep", sleeps.append)
        dispatcher = QueueDispatcher(tmp_path / "q", poll_s=0.05)
        for _ in range(2):
            dispatcher.queue = _ScriptedQueue([9])
            assert dispatcher.run_tasks(_square, [2]) == [4]
        assert sleeps == _doubling(9, 0.05) * 2


class _ScriptedClaims:
    """Claims: ``None`` for scripted idle stretches, a job between them."""

    def __init__(self, idle_stretches):
        self.script: list = []
        for count in idle_stretches:
            self.script.extend([None] * count)
            self.script.append(("job", (_square, 5, "ci")))
        self.script.pop()  # end on an idle stretch

    def claim(self, worker_id):
        return self.script.pop(0) if self.script else None


class TestWorkerBackoff:
    def test_idle_claims_back_off_and_reset_after_a_job(
        self, tmp_path, monkeypatch
    ):
        worker = FleetWorker(tmp_path, poll_s=0.2)
        worker.queue = _ScriptedClaims([10, 4])
        waits: list = []
        ran: list = []

        def wait(timeout):
            waits.append(timeout)
            if len(waits) == 14:
                worker._drain.set()
            return worker._drain.is_set()

        monkeypatch.setattr(worker._drain, "wait", wait)
        monkeypatch.setattr(worker, "_beat", lambda state: None)
        monkeypatch.setattr(worker, "_run_one", lambda job_id, job: ran.append(job_id))
        assert worker.run() == 0
        assert ran == ["job"]
        assert waits == _doubling(10, 0.2) + _doubling(4, 0.2)
