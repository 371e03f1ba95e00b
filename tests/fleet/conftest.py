"""Shared fixtures for the fleet tests: small real BlockJobs and the pure
search tasks the queue carries.

One 2-qubit entangling block with a per-test rotation angle keeps each
search short while still exercising the full claim → run → complete path
with genuine pulse work.
"""

from __future__ import annotations

import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.config import get_preset
from repro.core import PulseCache
from repro.core.compiler import BlockPulseCompiler, search_job
from repro.pulse.device import GmonDevice
from repro.pulse.grape.engine import GrapeHyperparameters, GrapeSettings
from repro.transpile.topology import line_topology

SETTINGS = GrapeSettings(dt_ns=0.5, target_fidelity=0.95)
HYPER = GrapeHyperparameters(0.05, 0.002, max_iterations=120)


def block_circuit(angle: float) -> QuantumCircuit:
    circuit = QuantumCircuit(2)
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.rz(angle, 1)
    return circuit


@pytest.fixture
def block_compiler():
    return BlockPulseCompiler(
        GmonDevice(line_topology(2)), SETTINGS, HYPER, PulseCache()
    )


@pytest.fixture
def job_factory(block_compiler):
    """Build a picklable (seedless) BlockJob for one angle of the test
    block."""

    def make(angle: float = 0.3):
        job = block_compiler.make_job(block_circuit(angle), (0, 1))
        assert job is not None
        return job

    return make


@pytest.fixture
def task_factory(job_factory):
    """The queue payload a dispatcher enqueues for one block search:
    ``(search_job, job, preset)``."""

    def make(angle: float = 0.3):
        return (search_job, job_factory(angle), get_preset().name)

    return make


@pytest.fixture(scope="session")
def same_search():
    """Bit-identity of two minimum-time search results (wall time aside)."""

    def check(a, b) -> bool:
        return (
            a.duration_ns == b.duration_ns
            and a.fidelity == b.fidelity
            and a.converged == b.converged
            and a.total_iterations == b.total_iterations
            and a.probes == b.probes
            and a.schedule.controls.tobytes() == b.schedule.controls.tobytes()
        )

    return check
