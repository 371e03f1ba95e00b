"""Shared fixtures for the HTTP compilation frontend tests.

The service fixture pins ``warm_start=False``, so these tests' pulses do
not depend on the warm-start defaults.  Bit-identity between in-process
and HTTP compiles holds with warm start on too: ``test_serve.py`` runs
both settings over a default ``auto`` service.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.pulse.grape.engine import GrapeHyperparameters, GrapeSettings
from repro.qaoa import maxcut_problem, qaoa_circuit
from repro.server import CompilationServer, ServerClient
from repro.service import CompilationService, CompileRequest, ServiceConfig
from repro.transpile import transpile

SETTINGS = GrapeSettings(dt_ns=0.5, target_fidelity=0.95)
HYPER = GrapeHyperparameters(
    learning_rate=0.05, decay_rate=0.002, max_iterations=80
)


@pytest.fixture(scope="module")
def workload():
    """A small parametrized circuit (QAOA MAXCUT K4, p=1) plus one θ."""
    problem = maxcut_problem("clique", 4, seed=0)
    circuit = transpile(qaoa_circuit(problem, p=1))
    return circuit, [0.4, 0.9]


@pytest.fixture
def make_request(workload):
    """CompileRequest factory bound to the shared workload."""
    circuit, theta = workload

    def build(strategy: str = "gate", **kwargs) -> CompileRequest:
        kwargs.setdefault("settings", SETTINGS)
        kwargs.setdefault("hyperparameters", HYPER)
        return CompileRequest(circuit, theta, strategy=strategy, **kwargs)

    return build


@pytest.fixture
def service():
    """A serial in-process service with warm start pinned off."""
    with CompilationService(
        config=ServiceConfig(executor="serial", warm_start=False),
        settings=SETTINGS,
        hyperparameters=HYPER,
    ) as svc:
        yield svc


@pytest.fixture
def server(service):
    """An HTTP frontend on an ephemeral port over the serial service."""
    with CompilationServer(service, port=0).start() as srv:
        yield srv


@pytest.fixture
def client(server):
    return ServerClient(server.url, timeout_s=300.0, retries=1, backoff_s=0.05)


@pytest.fixture(scope="session")
def raw_post():
    """POST arbitrary bytes to a URL, returning (status, decoded payload).

    The typed client refuses to send malformed payloads, so the HTTP
    error-path tests need this lower-level escape hatch.
    """

    def post(url: str, body: bytes, content_type: str = "application/json"):
        request = urllib.request.Request(
            url,
            data=body,
            method="POST",
            headers={"Content-Type": content_type},
        )
        try:
            with urllib.request.urlopen(request, timeout=60) as response:
                return response.status, json.loads(response.read() or b"{}")
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read() or b"{}")

    return post
