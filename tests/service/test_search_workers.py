"""The ``auto`` executor's forked search workers, and seed-carrying jobs.

A request's cold block searches travel as seed-carrying
:class:`~repro.pipeline.jobs.BlockJob` descriptors: the service resolves
cache hits and warm-start seeds, a worker (or a process pool) runs only
the pure search, and the service caches and judges the results in block
order.  So every venue must give exactly what ``executor="serial"``
gives — pulses, iteration counts and warm-start telemetry — with warm
start on.  The ``one_usable_pair`` fixture lets the ``auto`` executor fork
its one search worker even on a single-CPU host.
"""

from __future__ import annotations

import faulthandler
import gc
import multiprocessing
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.pipeline import executors as executors_module
from repro.pipeline.executors import AutoExecutor
from repro.pulse.grape.seeding import warm_start_telemetry
from repro.server import CompilationServer, ServerClient
from repro.service import CompilationService, CompileRequest, ServiceConfig

WORKERS = ServiceConfig(executor="auto")
SRC_ROOT = Path(repro.__file__).resolve().parent.parent

#: Near-miss θ steps, so later requests warm-start from earlier pulses.
THETAS = [[0.4 + 0.03 * k, 0.9 - 0.02 * k] for k in range(4)]

#: CompileResult metadata that depends only on the compiled blocks.
_WORK_KEYS = ("blocks", "grape_blocks", "fallback_blocks", "scheduler")


@pytest.fixture(autouse=True)
def deadlock_guard():
    """Fail loud on a fork deadlock: dump all stacks and exit after 300 s."""
    faulthandler.dump_traceback_later(300, exit=True)
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture(autouse=True)
def one_usable_pair(monkeypatch):
    """This process may use two CPUs, so ``auto`` forks its worker."""
    monkeypatch.setattr(executors_module, "_usable_cpus", lambda: 2)


def _request(circuit, theta, settings, hyper) -> CompileRequest:
    return CompileRequest(
        circuit,
        theta,
        strategy="full-grape",
        settings=settings,
        hyperparameters=hyper,
        max_block_width=2,
    )


def _run(config, workload, settings, hyper, thetas=THETAS) -> tuple:
    """Compile ``thetas`` in order on a fresh service; returns the results,
    the warm-start telemetry they moved and the executor's stats."""
    circuit, _ = workload
    before = warm_start_telemetry()
    with CompilationService(config) as service:
        results = [
            service.compile(_request(circuit, theta, settings, hyper))
            for theta in thetas
        ]
        executor = service.stats()["executor"]
    after = warm_start_telemetry()
    moved = {name: after[name] - before[name] for name in after}
    return results, moved, executor


def _assert_same_work(ours, theirs, programs_identical, unbatched=False) -> None:
    """Same pulses, iterations and block accounting; ``unbatched`` skips
    the batched-kernel counts, which only inline executors move."""
    for a, b in zip(ours, theirs, strict=True):
        assert programs_identical(a.program, b.program)
        assert a.runtime_iterations == b.runtime_iterations
        for key in _WORK_KEYS:
            mine, want = a.metadata[key], b.metadata[key]
            if unbatched and key == "scheduler":
                skip = ("batched_groups", "batched_blocks")
                mine = {k: v for k, v in mine.items() if k not in skip}
                want = {k: v for k, v in want.items() if k not in skip}
            assert mine == want, key


def _context_switches(pid: int) -> tuple:
    fields = {}
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            name, _, value = line.partition(":")
            fields[name] = value.strip()
    return (
        fields["voluntary_ctxt_switches"],
        fields["nonvoluntary_ctxt_switches"],
    )


class TestWorkerRoute:
    @pytest.mark.parametrize("cpus", [2, 4])
    def test_matches_serial_with_worker_counts(
        self,
        cpus,
        monkeypatch,
        workload,
        coarse_settings,
        coarse_hyper,
        programs_identical,
    ):
        """Both of auto's routes: ``compile_blocks_batched`` on a 2-CPU
        host, ``dispatch_jobs`` on a larger one, which never batches."""
        serial, serial_moved, _ = _run(
            ServiceConfig(executor="serial"),
            workload,
            coarse_settings,
            coarse_hyper,
        )
        monkeypatch.setattr(executors_module.os, "cpu_count", lambda: cpus)
        routed, routed_moved, executor = _run(
            WORKERS, workload, coarse_settings, coarse_hyper
        )
        assert executor["mode"] == ("inline" if cpus <= 2 else "thread-persistent")
        assert executor["search_workers"] == 1
        assert executor["worker_searches"] > 0
        assert executor["worker_fallbacks"] == 0
        _assert_same_work(routed, serial, programs_identical, unbatched=cpus > 2)
        # The worker's accept/reject and iteration counts reach the parent.
        assert serial_moved["accepted"] > 0
        assert routed_moved == serial_moved

    @pytest.mark.parametrize("executor", ["process", "process-persistent"])
    def test_process_pools_match_serial(
        self,
        executor,
        workload,
        coarse_settings,
        coarse_hyper,
        programs_identical,
    ):
        serial, serial_moved, _ = _run(
            ServiceConfig(executor="serial"),
            workload,
            coarse_settings,
            coarse_hyper,
        )
        pooled, pooled_moved, _ = _run(
            ServiceConfig(executor=executor, max_workers=2),
            workload,
            coarse_settings,
            coarse_hyper,
        )
        _assert_same_work(pooled, serial, programs_identical, unbatched=True)
        assert pooled_moved == serial_moved


class TestWorkerLifecycle:
    def test_killed_worker_falls_back_inline(
        self, workload, coarse_settings, coarse_hyper, programs_identical
    ):
        circuit, _ = workload
        serial, _, _ = _run(
            ServiceConfig(executor="serial"),
            workload,
            coarse_settings,
            coarse_hyper,
        )
        with CompilationService(WORKERS) as service:
            results = [
                service.compile(
                    _request(circuit, THETAS[0], coarse_settings, coarse_hyper)
                )
            ]
            worker = service.executor._worker
            worker.process.kill()
            worker.process.join()
            for theta in THETAS[1:]:
                results.append(
                    service.compile(
                        _request(circuit, theta, coarse_settings, coarse_hyper)
                    )
                )
            executor = service.stats()["executor"]
            # The dead worker's share ran inline once; nothing re-forked.
            assert executor["worker_fallbacks"] == 1
            assert executor["search_workers"] == 0
            assert service.executor._worker is None
        _assert_same_work(results, serial, programs_identical)

    def test_idle_worker_blocks_on_its_pipe(
        self, workload, coarse_settings, coarse_hyper
    ):
        if not Path("/proc/self/status").exists():
            pytest.skip("needs /proc")
        circuit, _ = workload
        with CompilationService(WORKERS) as service:
            service.compile(
                _request(circuit, THETAS[0], coarse_settings, coarse_hyper)
            )
            worker = service.executor._worker
            before = _context_switches(worker.process.pid)
            time.sleep(0.5)
            # A polling loop would wake (and switch) several times here.
            assert _context_switches(worker.process.pid) == before

    def test_close_leaves_no_children(self):
        """In a fresh interpreter: after ``close()`` no child survives."""
        script = (
            "import sys; sys.path.insert(0, sys.argv[1])\n"
            "import multiprocessing\n"
            "import repro.pipeline.executors as executors\n"
            "executors._usable_cpus = lambda: 2\n"
            "from repro.qaoa import maxcut_problem, qaoa_circuit\n"
            "from repro.pulse.grape.engine import "
            "GrapeHyperparameters, GrapeSettings\n"
            "from repro.service import CompilationService, CompileRequest, "
            "ServiceConfig\n"
            "circuit = qaoa_circuit(maxcut_problem('clique', 4, seed=0), p=1)\n"
            "service = CompilationService(ServiceConfig(executor='auto'))\n"
            "assert len(multiprocessing.active_children()) == 1\n"
            "service.compile(CompileRequest(circuit, [0.4, 0.9], "
            "strategy='full-grape', max_block_width=2, "
            "settings=GrapeSettings(dt_ns=0.5, target_fidelity=0.95), "
            "hyperparameters=GrapeHyperparameters(max_iterations=60)))\n"
            "service.close()\n"
            "print(len(multiprocessing.active_children()))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(SRC_ROOT)],
            capture_output=True,
            text=True,
            timeout=240,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0"

    def test_dropped_service_reaps_its_worker(self):
        service = CompilationService(WORKERS)
        worker = service.executor._worker
        process = worker.process
        del service, worker
        gc.collect()
        process.join(10)
        assert process.exitcode is not None

    def test_two_http_clients_complete(self, workload, coarse_settings, coarse_hyper):
        circuit, _ = workload
        per_client = 10
        outcomes: list = [[] for _ in range(2)]

        def client(index: int, remote: ServerClient) -> None:
            for k in range(per_client):
                theta = [0.4 + 0.01 * k + 0.3 * index, 0.9 - 0.01 * k]
                try:
                    outcomes[index].append(
                        remote.compile(
                            _request(circuit, theta, coarse_settings, coarse_hyper)
                        )
                    )
                except Exception as exc:  # noqa: BLE001 — reported below
                    outcomes[index].append(exc)

        with CompilationService(WORKERS) as service:
            with CompilationServer(service, port=0).start() as server:
                remote = ServerClient(server.url, timeout_s=120.0)
                threads = [
                    threading.Thread(target=client, args=(i, remote))
                    for i in range(2)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=240)
                assert not any(thread.is_alive() for thread in threads)
            executor = service.stats()["executor"]
        results = [result for out in outcomes for result in out]
        assert len(results) == 2 * per_client
        assert not [r for r in results if isinstance(r, Exception)]
        assert executor["worker_searches"] > 0


class TestRunSearches:
    def _jobs(self, angles):
        from repro.circuits.circuit import QuantumCircuit
        from repro.core.compiler import BlockPulseCompiler
        from repro.pulse.device import GmonDevice
        from repro.pulse.grape.engine import GrapeHyperparameters, GrapeSettings
        from repro.transpile.topology import line_topology

        compiler = BlockPulseCompiler(
            GmonDevice(line_topology(2)),
            GrapeSettings(dt_ns=0.5, target_fidelity=0.95),
            GrapeHyperparameters(max_iterations=60),
        )
        jobs = []
        for angle in angles:
            block = QuantumCircuit(2)
            block.h(0)
            block.cx(0, 1)
            block.rz(angle, 1)
            jobs.append(compiler.make_job(block, (0, 1)))
        return jobs

    def test_failed_search_leaves_the_worker_usable(self):
        import numpy as np
        from dataclasses import replace

        from repro.core.compiler import search_job

        jobs = self._jobs([0.2, 0.6])
        broken = [replace(job, target=np.eye(3)) for job in jobs]
        executor = AutoExecutor()
        try:
            assert executor.start_worker()
            with pytest.raises(Exception):
                executor.run_searches(broken)
            # The worker's reply to the failed request was drained: the
            # next request reads its own results.
            results = executor.run_searches(jobs)
            assert executor.describe()["worker_searches"] == 1
        finally:
            executor.close()
        for result, job in zip(results, jobs):
            inline = search_job(job)
            assert np.array_equal(result.schedule.controls, inline.schedule.controls)
            assert result.total_iterations == inline.total_iterations


class TestWorkerSizing:
    def test_one_worker_whatever_max_workers(self):
        """``max_workers`` sizes only the closure-map thread pool."""
        executor = AutoExecutor(max_workers=8)
        try:
            assert executor.start_worker()
            assert executor.describe()["search_workers"] == 1
            assert len(multiprocessing.active_children()) >= 1
        finally:
            executor.close()
        assert executor.describe()["search_workers"] == 0

    def test_no_worker_on_one_usable_cpu(self, monkeypatch):
        monkeypatch.setattr(executors_module, "_usable_cpus", lambda: 1)
        executor = AutoExecutor(max_workers=8)
        assert not executor.start_worker()
        jobs = TestRunSearches()._jobs([0.2, 0.6])
        executor.run_searches(jobs)
        assert executor.describe()["inline_searches"] == 2
        assert executor.describe()["worker_searches"] == 0

    def test_usable_cpus_reads_the_affinity_mask(self, monkeypatch):
        monkeypatch.undo()  # the real helper, not the fixture's
        if not hasattr(os, "sched_getaffinity"):
            pytest.skip("no affinity mask on this platform")
        assert executors_module._usable_cpus() == len(os.sched_getaffinity(0))
