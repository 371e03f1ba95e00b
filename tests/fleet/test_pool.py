"""QueueDispatcher's worker pool: a fixed count, topped up and revived.

The lifecycle is tested with fake process handles (no processes), then
once with a real worker that is killed between two dispatches.
"""

from __future__ import annotations

import signal

import pytest

from repro.core import PulseCache
from repro.core.compiler import compile_jobs, search_job
from repro.errors import PipelineError
from repro.fleet import QueueDispatcher
from repro.fleet.dispatcher import _MAX_RESPAWNS
from repro.pipeline import SerialExecutor
from repro.pipeline.jobs import _encode_outcome


class FakeProc:
    """A process handle the tests can kill at will."""

    def __init__(self, alive: bool = True):
        self.alive = alive
        self.signals: list = []
        self.waited = False

    def poll(self):
        return None if self.alive else 0

    def send_signal(self, signum):
        self.signals.append(signum)
        self.alive = False

    def wait(self, timeout=None):
        self.waited = True
        return 0


def _fake_pool(tmp_path, workers: int, alive: bool = True) -> QueueDispatcher:
    """A dispatcher whose spawns hand out :class:`FakeProc` handles."""
    dispatcher = QueueDispatcher(
        tmp_path / "q", workers=workers, poll_s=0.001, job_timeout_s=5.0
    )
    dispatcher.spawned = []

    def spawn():
        proc = FakeProc(alive)
        dispatcher.spawned.append(proc)
        dispatcher._procs.append(proc)
        dispatcher.workers_spawned += 1

    dispatcher._spawn_worker = spawn
    return dispatcher


class TestFixedPool:
    def test_tops_up_to_the_configured_count(self, tmp_path):
        dispatcher = _fake_pool(tmp_path, workers=3)
        dispatcher._ensure_workers()
        assert dispatcher._live_workers() == 3
        dispatcher._ensure_workers()  # already full: nothing new
        assert dispatcher.workers_spawned == 3

    def test_dead_worker_is_reaped_and_replaced(self, tmp_path):
        dispatcher = _fake_pool(tmp_path, workers=2)
        dispatcher._ensure_workers()
        dispatcher.spawned[0].alive = False
        assert dispatcher._live_workers() == 1
        dispatcher._ensure_workers()
        assert dispatcher._live_workers() == 2
        assert dispatcher.workers_spawned == 3

    def test_crash_loop_gives_up_after_bounded_respawns(
        self, tmp_path, job_factory
    ):
        """Workers that die as soon as they start cannot wedge a dispatch:
        it revives them a bounded number of times, then raises."""
        dispatcher = _fake_pool(tmp_path, workers=1, alive=False)
        with pytest.raises(PipelineError, match="keep dying"):
            dispatcher.run_tasks(search_job, [job_factory(0.3)])
        assert dispatcher.respawns == _MAX_RESPAWNS
        assert dispatcher.workers_spawned == _MAX_RESPAWNS + 1

    def test_close_terminates_then_waits(self, tmp_path):
        dispatcher = _fake_pool(tmp_path, workers=2)
        dispatcher._ensure_workers()
        dispatcher.close()
        for proc in dispatcher.spawned:
            assert proc.signals == [signal.SIGTERM]
            assert proc.waited
        assert dispatcher._live_workers() == 0

    def test_negative_count_means_inline(self, tmp_path, job_factory):
        with QueueDispatcher(tmp_path / "q", workers=-2) as dispatcher:
            assert dispatcher.workers == 0
            [outcome] = dispatcher.run_tasks(search_job, [job_factory(0.3)])
            assert dispatcher.inline_jobs == 1
            assert dispatcher.workers_spawned == 0
        assert outcome.duration_ns > 0

    def test_fleet_section_reports_the_pool(self, tmp_path):
        dispatcher = _fake_pool(tmp_path, workers=2)
        dispatcher._ensure_workers()
        report = dispatcher.describe()
        assert report["workers"] == 2
        assert report["respawns"] == 0
        assert report["fleet"] == {
            "directory": str(dispatcher.queue.directory),
            "pending_jobs": 0,
            "leased_jobs": 0,
            "hosts": report["fleet"]["hosts"],
            "live_workers": 2,
            "workers_spawned": 2,
        }


class TestRealWorkerRevival:
    def test_killed_worker_is_replaced_on_the_next_dispatch(
        self, tmp_path, job_factory
    ):
        jobs = [job_factory(0.2), job_factory(0.7)]
        expected = [
            _encode_outcome(outcome)
            for outcome in compile_jobs(jobs, PulseCache(), SerialExecutor())
        ]
        with QueueDispatcher(
            tmp_path / "q", workers=1, poll_s=0.02
        ) as dispatcher:
            first = compile_jobs(jobs[:1], PulseCache(), dispatcher)
            [proc] = dispatcher._procs
            proc.kill()
            proc.wait()
            second = compile_jobs(jobs[1:], PulseCache(), dispatcher)
            info = dispatcher.describe()
        assert [_encode_outcome(o) for o in first + second] == expected
        assert info["workers_spawned"] == 2
        assert info["completed_jobs"] == 2
        assert info["inline_jobs"] == 0
