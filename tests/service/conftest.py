"""Shared fixtures for the service-facade tests.

Deliberately coarse GRAPE settings (0.5 ns slices, 0.95 fidelity, small
iteration budgets) keep the five-strategy equivalence and concurrency
tests fast; the physics is identical, only the resolution differs.
"""

from __future__ import annotations

import pytest

from repro.pulse.grape.engine import GrapeHyperparameters, GrapeSettings
from repro.qaoa import maxcut_problem, qaoa_circuit
from repro.transpile import transpile


@pytest.fixture(scope="module")
def workload():
    """A small parametrized circuit (QAOA MAXCUT K4, p=1) plus one θ."""
    problem = maxcut_problem("clique", 4, seed=0)
    circuit = transpile(qaoa_circuit(problem, p=1))
    return circuit, [0.4, 0.9]


@pytest.fixture
def coarse_settings():
    return GrapeSettings(dt_ns=0.5, target_fidelity=0.95)


@pytest.fixture
def coarse_hyper():
    return GrapeHyperparameters(
        learning_rate=0.05, decay_rate=0.002, max_iterations=80
    )
