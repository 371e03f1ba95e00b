"""Shared fixtures.

GRAPE-heavy tests use deliberately coarse settings (0.25 ns slices, relaxed
fidelity target, small iteration budgets) so the whole suite stays fast;
the physics is identical, only the resolution differs.
"""

from __future__ import annotations

import signal
import subprocess
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields

import numpy as np
import pytest

from repro.core.compiler import BlockCompileOutcome
from repro.fleet.queue import FleetQueue
from repro.fleet.worker import spawn_worker
from repro.pipeline import BlockExecutor
from repro.pulse.device import GmonDevice
from repro.pulse.grape.engine import GrapeHyperparameters, GrapeSettings
from repro.transpile.topology import line_topology


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def two_qubit_device():
    return GmonDevice(line_topology(2))


@pytest.fixture
def three_qubit_device():
    return GmonDevice(line_topology(3))


@pytest.fixture
def fast_settings():
    """Coarse GRAPE settings for quick unit tests."""
    return GrapeSettings(dt_ns=0.25, target_fidelity=0.99)


@pytest.fixture
def fast_hyper():
    return GrapeHyperparameters(learning_rate=0.05, decay_rate=0.002, max_iterations=200)


class ThreadedExecutor(BlockExecutor):
    """A block executor whose ``map`` runs tasks on concurrent threads.

    Neither shipped executor overlaps tasks inside one process, so this
    fake is how tests check that shared state (pulse cache, scheduler
    dedup, warm-start seeds) stays exact when block tasks overlap.  Like
    any overlapping executor it does not prefer batching, so the
    scheduler sends its fixed blocks down the job route.
    """

    name = "threaded"

    def __init__(self, workers: int = 2):
        self.workers = workers

    def map(self, fn, items):
        items = list(items)
        with ThreadPoolExecutor(max_workers=self.workers) as pool:
            return list(pool.map(fn, items))


@pytest.fixture
def threaded_executor():
    return ThreadedExecutor()


def _schedules_identical(a, b) -> bool:
    """Two pulse schedules agree in every field, controls byte for byte."""
    return (
        tuple(a.qubits) == tuple(b.qubits)
        and a.dt_ns == b.dt_ns
        and tuple(a.channel_names) == tuple(b.channel_names)
        and a.source == b.source
        and a.controls.dtype == b.controls.dtype
        and a.controls.shape == b.controls.shape
        and a.controls.tobytes() == b.controls.tobytes()
    )


@pytest.fixture(scope="session")
def programs_identical():
    """Bit-identity check for pulse programs: durations + control samples
    as raw bytes."""

    def check(a, b) -> bool:
        if a.duration_ns != b.duration_ns:
            return False
        schedules_a, schedules_b = list(a.schedules), list(b.schedules)
        if len(schedules_a) != len(schedules_b):
            return False
        return all(
            x.controls.dtype == y.controls.dtype
            and x.controls.shape == y.controls.shape
            and x.controls.tobytes() == y.controls.tobytes()
            for x, y in zip(schedules_a, schedules_b)
        )

    return check


@pytest.fixture(scope="session")
def outcomes_identical():
    """Bit-identity check for two lists of ``BlockCompileOutcome``: every
    field equal, every schedule field equal, control samples compared as
    raw bytes."""

    def same(a, b) -> bool:
        return all(
            _schedules_identical(a.schedule, b.schedule)
            if f.name == "schedule"
            else getattr(a, f.name) == getattr(b, f.name)
            for f in fields(BlockCompileOutcome)
        )

    def check(a, b) -> bool:
        a, b = list(a), list(b)
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))

    return check


@pytest.fixture
def fleet_workers():
    """``start(fleet_dir, count)`` runs ``count`` ``python -m repro worker``
    processes on a queue directory, as an operator does on each host, and
    returns once the queue counts them live.  Teardown SIGTERMs (drains)
    and reaps them."""
    procs: list = []

    def start(fleet_dir, count: int = 1) -> list:
        queue = FleetQueue(fleet_dir)
        expected = queue.live_workers() + count
        started = [
            spawn_worker(
                fleet_dir,
                "--poll",
                "0.02",
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
            for _ in range(count)
        ]
        procs.extend(started)
        deadline = time.monotonic() + 120
        while queue.live_workers() < expected:
            assert all(proc.poll() is None for proc in started)
            assert time.monotonic() < deadline, "fleet workers never registered"
            time.sleep(0.02)
        return started

    yield start
    for proc in procs:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
    for proc in procs:
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
