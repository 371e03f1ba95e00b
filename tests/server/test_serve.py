"""End-to-end: HTTP compile over the default service, and the CLI pair
operators run.

``POST /v1/compile`` lands on a service built from a default
``ServiceConfig()`` (the ``auto`` executor, with its forked search
workers where a second CPU exists), and the pulses that come back over
the wire are bit-identical to an inline ``serial`` ``service.compile``
with warm start off or on.  Then the real processes:
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
from repro.pulse.grape.engine import GrapeHyperparameters, GrapeSettings
from repro.server import CompilationServer, ServerClient
from repro.service import CompilationService, ServiceConfig

SETTINGS = GrapeSettings(dt_ns=0.5, target_fidelity=0.95)
HYPER = GrapeHyperparameters(
    learning_rate=0.05, decay_rate=0.002, max_iterations=80
)

SRC_ROOT = Path(repro.__file__).resolve().parent.parent

#: ``python -c`` shim that puts this checkout's ``src`` on ``sys.path``
#: (first argv entry) and hands the rest to the repro CLI.
CLI_BOOTSTRAP = (
    "import sys; sys.path.insert(0, sys.argv.pop(1)); "
    "from repro.cli import main; sys.exit(main(sys.argv[1:]))"
)


def _cli(*args) -> list:
    """The argv of ``python -m repro *args`` run from this checkout."""
    return [sys.executable, "-c", CLI_BOOTSTRAP, str(SRC_ROOT), *args]


class TestDefaultServiceOverHttp:
    @pytest.mark.parametrize("warm_start", [False, True])
    def test_http_compile_bit_identical_to_inline(
        self, make_request, programs_identical, warm_start
    ):
        """One request through HTTP over a default (``auto``) service;
        the same request inline through a serial service; same bits."""
        request = make_request("strict-partial", max_block_width=2)
        with CompilationService(
            config=ServiceConfig(warm_start=warm_start),
            settings=SETTINGS,
            hyperparameters=HYPER,
        ) as auto_service:
            with CompilationServer(auto_service, port=0).start() as srv:
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
        assert stats["service"]["executor"]["executor"] == "auto"


def _terminate(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
        proc.wait(timeout=30)


@pytest.fixture
def serve_process():
    """A real ``python -m repro serve`` child on an ephemeral port."""
    proc = subprocess.Popen(
        _cli(
            "serve",
            "--host",
            "127.0.0.1",
            "--port",
            "0",
            "--executor",
            "serial",
            "--grace",
            "30",
        ),
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
            _cli(
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
            ),
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
