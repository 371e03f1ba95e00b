"""FleetAutoscaler: policy unit tests plus the real-process ride.

The policy layer is tested with injected depth/spawn/clock fakes (no
processes), then the acceptance path runs for real: a QueueDispatcher in
autoscale mode grows its worker pool under a sustained backlog and drains
back to ``min_workers`` by surge idle-exit once the queue empties.
"""

from __future__ import annotations

import time

import pytest

from repro.core import PulseCache
from repro.core.compiler import compile_jobs, search_job
from repro.errors import ReproError
from repro.fleet import FleetAutoscaler, QueueDispatcher


class FakeProc:
    """A process handle the policy tests can kill at will."""

    def __init__(self, idle_exit_s):
        self.idle_exit_s = idle_exit_s
        self.exited = False

    def poll(self):
        return 0 if self.exited else None


class Harness:
    """One autoscaler wired to a settable depth and fake spawns."""

    def __init__(self, **kwargs):
        self.depth = 0
        self.spawned: list = []
        kwargs.setdefault("interval_s", 0.0)
        self.scaler = FleetAutoscaler(
            queue_depth=lambda: self.depth,
            spawn_worker=self._spawn,
            **kwargs,
        )

    def _spawn(self, idle_exit_s):
        proc = FakeProc(idle_exit_s)
        self.spawned.append(proc)
        return proc


class TestPolicy:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min_workers": -1},
            {"max_workers": 0},
            {"min_workers": 3, "max_workers": 2},
            {"backlog_streak": 0},
        ],
    )
    def test_bad_bounds_rejected(self, kwargs):
        with pytest.raises(ReproError):
            FleetAutoscaler(
                queue_depth=lambda: 0, spawn_worker=lambda _: None, **kwargs
            )

    def test_floor_is_spawned_without_idle_exit(self):
        h = Harness(min_workers=2, max_workers=4)
        h.scaler.ensure_floor()
        assert h.scaler.live_workers() == 2
        assert [p.idle_exit_s for p in h.spawned] == [None, None]

    def test_sustained_backlog_grows_one_worker_per_streak(self):
        h = Harness(min_workers=0, max_workers=3, backlog_streak=3)
        h.depth = 5
        for _ in range(2):
            h.scaler.sample()
        assert h.scaler.live_workers() == 0  # not sustained yet
        h.scaler.sample()
        assert h.scaler.live_workers() == 1  # third consecutive sample
        assert h.spawned[-1].idle_exit_s == h.scaler.surge_idle_exit_s
        # The streak resets after a decision: three more samples per worker.
        for _ in range(6):
            h.scaler.sample()
        assert h.scaler.live_workers() == 3
        assert h.scaler.scale_ups == 3

    def test_never_exceeds_max_workers(self):
        h = Harness(min_workers=0, max_workers=2, backlog_streak=1)
        h.depth = 100
        for _ in range(10):
            h.scaler.sample()
        assert h.scaler.live_workers() == 2
        assert h.scaler.peak_workers == 2

    def test_momentary_spike_rides_on_existing_pool(self):
        h = Harness(min_workers=1, max_workers=4, backlog_streak=3)
        h.scaler.ensure_floor()
        h.depth = 9
        h.scaler.sample()
        h.scaler.sample()
        h.depth = 0  # spike over before the streak completes
        h.scaler.sample()
        h.depth = 9
        h.scaler.sample()
        assert h.scaler.scale_ups == 0
        assert h.scaler.live_workers() == 1

    def test_surge_exits_count_as_scale_downs(self):
        h = Harness(min_workers=1, max_workers=4, backlog_streak=1)
        h.depth = 10
        for _ in range(3):
            h.scaler.sample()
        assert h.scaler.live_workers() == 4
        # Queue empties; surge workers idle-exit on their own.
        h.depth = 0
        for proc in h.spawned:
            if proc.idle_exit_s is not None:
                proc.exited = True
        assert h.scaler.live_workers() == 1  # back to the floor
        assert h.scaler.scale_downs == 3
        assert h.scaler.core_respawns == 0

    def test_dead_core_worker_is_respawned(self):
        h = Harness(min_workers=1, max_workers=2)
        h.scaler.ensure_floor()
        h.spawned[0].exited = True
        assert h.scaler.live_workers() == 1  # reaped and replaced
        assert h.scaler.core_respawns == 1
        assert h.spawned[-1].idle_exit_s is None

    def test_maybe_sample_is_rate_limited(self):
        now = [0.0]
        h_depth = [0]
        spawned: list = []
        scaler = FleetAutoscaler(
            queue_depth=lambda: h_depth[0],
            spawn_worker=lambda idle: spawned.append(idle) or FakeProc(idle),
            interval_s=1.0,
            clock=lambda: now[0],
        )
        assert scaler.maybe_sample() is True
        assert scaler.maybe_sample() is False  # same instant
        now[0] = 0.5
        assert scaler.maybe_sample() is False  # inside the interval
        now[0] = 1.5
        assert scaler.maybe_sample() is True
        assert scaler.samples == 2

    def test_describe_reports_the_counters(self):
        h = Harness(min_workers=1, max_workers=3, backlog_streak=1)
        h.depth = 4
        h.scaler.sample()
        report = h.scaler.describe()
        assert report["min_workers"] == 1
        assert report["max_workers"] == 3
        assert report["core_workers"] == 1
        assert report["surge_workers"] == 1
        assert report["scale_ups"] == 1
        assert report["last_depth"] == 4
        assert report["peak_workers"] == 2


def _wait_for(predicate, timeout: float = 120.0, interval: float = 0.05) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestAutoscaledDispatch:
    def test_pool_rises_under_backlog_and_drains_when_idle(
        self, tmp_path, job_factory
    ):
        """The acceptance criterion, with real worker processes: worker
        count rises under a sustained backlog, every job completes, and
        the pool drains back to ``min_workers`` (0) once the queue is
        empty."""
        dispatcher = QueueDispatcher(
            tmp_path, autoscale=True, min_workers=0, max_workers=2
        )
        # Re-tune the policy for test speed: decide every 50 ms, scale
        # after 2 backlogged samples, idle-exit surge workers fast.
        dispatcher._autoscaler = FleetAutoscaler(
            queue_depth=dispatcher._backlog,
            spawn_worker=dispatcher._spawn_worker_process,
            min_workers=0,
            max_workers=2,
            backlog_streak=2,
            interval_s=0.05,
            surge_idle_exit_s=0.3,
        )
        try:
            jobs = [job_factory(0.1 * k) for k in range(1, 7)]
            outcomes = compile_jobs(jobs, PulseCache(), dispatcher)
            assert len(outcomes) == 6
            scaler = dispatcher._autoscaler
            assert scaler.scale_ups >= 1
            assert scaler.peak_workers >= 1
            assert dispatcher.completed_jobs == 6
            assert dispatcher.inline_jobs == 0  # nothing ran in-process
            # Queue empty -> surge workers idle-exit -> pool drains to the
            # floor, and the exits are counted as scale-downs.
            assert _wait_for(lambda: dispatcher._live_workers() == 0)
            assert scaler.scale_downs >= 1
            report = dispatcher.describe()["fleet"]
            assert report["mode"] == "autoscale"
            assert report["autoscaler"]["scale_ups"] == scaler.scale_ups
        finally:
            dispatcher.close()

    def test_autoscale_never_uses_inline_degraded_mode(self, tmp_path, job_factory):
        """min_workers=0 with autoscale still routes through the queue —
        the degraded inline path is only for fixed workers=0."""
        dispatcher = QueueDispatcher(
            tmp_path, autoscale=True, min_workers=0, max_workers=1
        )
        dispatcher._autoscaler = FleetAutoscaler(
            queue_depth=dispatcher._backlog,
            spawn_worker=dispatcher._spawn_worker_process,
            min_workers=0,
            max_workers=1,
            backlog_streak=1,
            interval_s=0.05,
            surge_idle_exit_s=0.3,
        )
        try:
            outcome = dispatcher.run_tasks(search_job, [job_factory(0.25)])
            assert len(outcome) == 1
            assert dispatcher.inline_jobs == 0
            assert dispatcher.workers_spawned >= 1
        finally:
            dispatcher.close()
