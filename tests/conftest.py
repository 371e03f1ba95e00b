"""Shared fixtures.

GRAPE-heavy tests use deliberately coarse settings (0.25 ns slices, relaxed
fidelity target, small iteration budgets) so the whole suite stays fast;
the physics is identical, only the resolution differs.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

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
