"""End-to-end: HTTP compile served by fleet workers in other processes.

The issue's acceptance path — ``POST /v1/compile`` lands on a service
whose queue dispatcher ships the block searches to a worker *process*,
and the pulses that come back over the wire are bit-identical to an
inline ``service.compile`` with warm start off or on — plus the CLI pair that operators actually run:
``python -m repro serve`` (SIGTERM drains) and
``python -m repro remote-compile --verify-local``.
"""

from __future__ import annotations

import signal
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.fleet.worker import _WORKER_BOOTSTRAP
from repro.pulse.grape.engine import GrapeHyperparameters, GrapeSettings
from repro.server import CompilationServer, ServerClient
from repro.service import CompilationService, ServiceConfig

SETTINGS = GrapeSettings(dt_ns=0.5, target_fidelity=0.95)
HYPER = GrapeHyperparameters(
    learning_rate=0.05, decay_rate=0.002, max_iterations=80
)

SRC_ROOT = Path(repro.__file__).resolve().parent.parent


class TestFleetServedCompile:
    @pytest.mark.parametrize("warm_start", [False, True])
    def test_http_compile_bit_identical_to_inline(
        self, tmp_path, make_request, programs_identical, fleet_workers, warm_start
    ):
        """One request through HTTP + queue dispatcher + worker process;
        the same request inline through a serial service; same bits."""
        request = make_request("strict-partial", max_block_width=2)
        fleet_workers(tmp_path / "fleet", 1)
        fleet_cfg = ServiceConfig(
            dispatcher="queue",
            fleet_dir=str(tmp_path / "fleet"),
            warm_start=warm_start,
        )
        with CompilationService(
            config=fleet_cfg, settings=SETTINGS, hyperparameters=HYPER
        ) as fleet_service:
            with CompilationServer(fleet_service, port=0).start() as srv:
                client = ServerClient(srv.url, timeout_s=600.0)
                remote = client.compile(request)
                stats = client.stats()
        with CompilationService(
            config=ServiceConfig(executor="serial", warm_start=warm_start),
            settings=SETTINGS,
            hyperparameters=HYPER,
        ) as serial_service:
            inline = serial_service.compile(request)
        assert programs_identical(
            remote.compiled.program, inline.compiled.program
        )
        # The work demonstrably left the server's address space.
        executor_stats = stats["service"]["executor"]
        assert executor_stats["executor"] == "queue"
        assert executor_stats["completed_jobs"] >= 1
        assert executor_stats["completions_by_worker"]
        # And the host-aware fleet section rode along on /v1/stats.
        fleet_stats = stats["service"]["fleet"]
        assert fleet_stats["live_workers"] == 1
        assert fleet_stats["pending_jobs"] == 0


def _terminate(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
        proc.wait(timeout=30)


@pytest.fixture
def serve_process():
    """A real ``python -m repro serve`` child on an ephemeral port."""
    cmd = [
        sys.executable,
        "-c",
        _WORKER_BOOTSTRAP,
        str(SRC_ROOT),
        "serve",
        "--host",
        "127.0.0.1",
        "--port",
        "0",
        "--executor",
        "serial",
        "--grace",
        "30",
    ]
    proc = subprocess.Popen(
        cmd,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        banner = proc.stderr.readline()
        assert "serving on http://" in banner, banner
        url = banner.split("serving on ", 1)[1].split(" ", 1)[0]
        yield proc, url
    finally:
        _terminate(proc)


class TestServeCli:
    def test_remote_compile_verifies_against_local(self, serve_process):
        proc, url = serve_process
        done = subprocess.run(
            [
                sys.executable,
                "-c",
                _WORKER_BOOTSTRAP,
                str(SRC_ROOT),
                "remote-compile",
                "--url",
                url,
                "--benchmark",
                "qaoa:clique:4:1",
                "--method",
                "strict",
                "--iterations",
                "80",
                "--verify-local",
            ],
            capture_output=True,
            text=True,
            timeout=560,
        )
        assert done.returncode == 0, done.stderr
        assert "bit-identical to local compile" in done.stdout
        assert "True" in done.stdout

    def test_sigterm_drains_and_exits_cleanly(self, serve_process):
        proc, url = serve_process
        client = ServerClient(url, timeout_s=30.0)
        assert client.healthz() == {"status": "ok"}
        proc.send_signal(signal.SIGTERM)
        remainder = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
        assert "draining in-flight requests" in remainder
