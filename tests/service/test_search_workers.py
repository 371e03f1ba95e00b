"""The ``auto`` executor's forked search workers, and seed-carrying jobs.

A request's cold block searches travel as seed-carrying
:class:`~repro.pipeline.jobs.BlockJob` descriptors: the service resolves
cache hits and warm-start seeds, the worker runs only the pure search,
and the service caches and judges the results in block order.  A
flexible-partial request's per-θ runtime GRAPE runs travel the same
route, as plan entries.  So the worker must give exactly what
``executor="serial"`` gives — pulses, iteration counts and warm-start
telemetry — with warm start on.  The ``one_usable_pair`` fixture lets the
``auto`` executor fork a pool of two search workers even on a single-CPU
host.
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

#: CompileResult metadata that depends only on the compiled blocks (the
#: strategy decides which of them a result carries).
_WORK_KEYS = {"blocks", "grape_blocks", "fallback_blocks", "scheduler"}

#: Strategies that send pure tasks to the worker: cold block searches
#: (full-grape) and per-θ runtime GRAPE runs (flexible-partial).
STRATEGIES = ["full-grape", "flexible-partial"]

#: A one-point tuning grid keeps the flexible precompile cheap.
_OPTIONS = {
    "full-grape": {},
    "flexible-partial": {
        "tuning_samples": 1,
        "learning_rates": (0.05,),
        "decay_rates": (0.002,),
    },
}


@pytest.fixture(autouse=True)
def deadlock_guard():
    """Fail loud on a fork deadlock: dump all stacks and exit after 300 s."""
    faulthandler.dump_traceback_later(300, exit=True)
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture(autouse=True)
def one_usable_pair(monkeypatch):
    """This process may use two CPUs, so ``auto`` forks two workers."""
    monkeypatch.setattr(executors_module, "_usable_cpus", lambda: 2)


def _request(
    circuit, theta, settings, hyper, strategy="full-grape"
) -> CompileRequest:
    return CompileRequest(
        circuit,
        theta,
        strategy=strategy,
        settings=settings,
        hyperparameters=hyper,
        max_block_width=2,
        options=dict(_OPTIONS[strategy]),
    )


def _run(
    config, workload, settings, hyper, thetas=THETAS, strategy="full-grape"
) -> tuple:
    """Compile ``thetas`` in order on a fresh service; returns the results,
    the warm-start telemetry they moved and the executor's stats."""
    circuit, _ = workload
    before = warm_start_telemetry()
    with CompilationService(config) as service:
        results = [
            service.compile(_request(circuit, theta, settings, hyper, strategy))
            for theta in thetas
        ]
        executor = service.stats()["executor"]
    after = warm_start_telemetry()
    moved = {name: after[name] - before[name] for name in after}
    return results, moved, executor


def _control_bytes(result) -> list:
    return [schedule.controls.tobytes() for schedule in result.program.schedules]


def _assert_same_work(ours, theirs, programs_identical) -> None:
    """Same pulses, iterations and block accounting."""
    for a, b in zip(ours, theirs, strict=True):
        assert programs_identical(a.program, b.program)
        assert _control_bytes(a) == _control_bytes(b)
        assert a.runtime_iterations == b.runtime_iterations
        assert a.metadata.keys() == b.metadata.keys()
        for key in _WORK_KEYS & a.metadata.keys():
            assert a.metadata[key] == b.metadata[key], key


def _pid(_item) -> int:
    """A pure task that takes 20 ms, long enough for a worker to claim a
    share, and reports the process that ran it."""
    time.sleep(0.02)
    return os.getpid()


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
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_matches_serial_with_worker_counts(
        self, strategy, workload, coarse_settings, coarse_hyper, programs_identical
    ):
        serial, serial_moved, _ = _run(
            ServiceConfig(executor="serial"),
            workload,
            coarse_settings,
            coarse_hyper,
            strategy=strategy,
        )
        routed, routed_moved, executor = _run(
            WORKERS, workload, coarse_settings, coarse_hyper, strategy=strategy
        )
        assert executor["search_workers"] == 2
        assert executor["worker_searches"] > 0
        assert executor["worker_fallbacks"] == 0
        _assert_same_work(routed, serial, programs_identical)
        # The worker's accept/reject, iteration and abandoned-descent
        # counts reach the parent.
        if strategy == "full-grape":
            assert serial_moved["accepted"] > 0
            assert serial_moved["abandoned_descents"] > 0
        assert routed_moved == serial_moved

    def test_overlapping_requests_use_different_workers(
        self, monkeypatch, workload, coarse_settings, coarse_hyper, programs_identical
    ):
        """Two requests in ``run_tasks`` at once each get a worker of their
        own, the later one handing its whole task list off, and their
        pulses match ``serial`` (warm start off, so order cannot matter)."""
        circuit, _ = workload

        def request(theta):
            return _request(
                circuit, theta, coarse_settings, coarse_hyper, "flexible-partial"
            )

        with CompilationService(
            ServiceConfig(executor="serial", warm_start=False)
        ) as service:
            serial = [service.compile(request(theta)) for theta in THETAS[:3]]
        served = []
        share = AutoExecutor._share
        run_tasks = AutoExecutor.run_tasks
        barrier = threading.Barrier(2, timeout=120)
        gated = set()

        def spy_share(self, worker, fn, items, handoff):
            served.append((worker.process.pid, handoff))
            return share(self, worker, fn, items, handoff)

        def gate(self, fn, items):
            # Each request's runtime entries enter run_tasks together.
            items = list(items)
            if len(items) > 1 and threading.get_ident() not in gated:
                gated.add(threading.get_ident())
                barrier.wait()
            return run_tasks(self, fn, items)

        results = [None] * 3
        with CompilationService(
            ServiceConfig(executor="auto", warm_start=False)
        ) as service:
            # The first request precompiles; the overlapping two replay it.
            results[0] = service.compile(request(THETAS[0]))
            monkeypatch.setattr(AutoExecutor, "_share", spy_share)
            monkeypatch.setattr(AutoExecutor, "run_tasks", gate)

            def client(index):
                results[index] = service.compile(request(THETAS[index]))

            threads = [threading.Thread(target=client, args=(i,)) for i in (1, 2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=240)
            assert not any(thread.is_alive() for thread in threads)
            executor = service.stats()["executor"]
        assert sorted(handoff for _, handoff in served) == [False, True]
        assert len({pid for pid, _ in served}) == 2
        assert executor["handoffs"] == 1
        assert executor["worker_fallbacks"] == 0
        _assert_same_work(results, serial, programs_identical)

    def test_worker_follows_the_dispatching_preset(
        self, workload, programs_identical
    ):
        """Settings that defer to the preset resolve in the worker as in
        the caller, even after the preset changed since the fork."""
        from repro.config import get_preset, set_preset
        from repro.pulse.grape.engine import GrapeHyperparameters, GrapeSettings

        circuit, theta = workload
        # dt and the iteration budget come from the active preset.
        settings = GrapeSettings(target_fidelity=0.95)
        hyper = GrapeHyperparameters(learning_rate=0.05, decay_rate=0.002)
        request = _request(circuit, theta, settings, hyper, "flexible-partial")
        original = get_preset().name
        try:
            set_preset("ci")
            with CompilationService(ServiceConfig(executor="serial")) as service:
                serial = service.compile(request)
            set_preset("paper")
            service = CompilationService(WORKERS)
            try:
                assert service.executor._workers
                # The worker was forked under "paper"; requests run "ci".
                set_preset("ci")
                routed = service.compile(request)
                executor = service.stats()["executor"]
            finally:
                service.close()
        finally:
            set_preset(original)
        assert executor["worker_searches"] > 0
        _assert_same_work([routed], [serial], programs_identical)

    def test_many_core_host_takes_the_batched_route(
        self,
        monkeypatch,
        workload,
        coarse_settings,
        coarse_hyper,
        programs_identical,
    ):
        """The route does not depend on the host's CPU count: with four
        CPUs, cold blocks still go through ``compile_blocks_batched``."""
        from repro.core.compiler import BlockPulseCompiler

        serial, _, _ = _run(
            ServiceConfig(executor="serial"),
            workload,
            coarse_settings,
            coarse_hyper,
            thetas=THETAS[:1],
        )
        monkeypatch.setattr(executors_module.os, "cpu_count", lambda: 4)
        batched_calls = []
        original = BlockPulseCompiler.compile_blocks_batched

        def spy(self, blocks, *args, **kwargs):
            blocks = list(blocks)
            batched_calls.append(len(blocks))
            return original(self, blocks, *args, **kwargs)

        monkeypatch.setattr(BlockPulseCompiler, "compile_blocks_batched", spy)
        routed, _, executor = _run(
            WORKERS, workload, coarse_settings, coarse_hyper, thetas=THETAS[:1]
        )
        assert serial[0].metadata["scheduler"]["dispatched_tasks"] >= 2
        assert batched_calls and max(batched_calls) >= 2
        assert executor["worker_searches"] > 0
        _assert_same_work(routed, serial, programs_identical)


class TestWorkerLifecycle:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_killed_worker_is_dropped_alone(
        self, strategy, workload, coarse_settings, coarse_hyper, programs_identical
    ):
        circuit, _ = workload
        serial, _, _ = _run(
            ServiceConfig(executor="serial"),
            workload,
            coarse_settings,
            coarse_hyper,
            strategy=strategy,
        )
        with CompilationService(WORKERS) as service:
            results = [
                service.compile(
                    _request(
                        circuit, THETAS[0], coarse_settings, coarse_hyper, strategy
                    )
                )
            ]
            # A request alone claims the first idle worker: kill that one.
            killed, survivor = service.executor._workers
            killed.process.kill()
            killed.process.join()
            for theta in THETAS[1:]:
                results.append(
                    service.compile(
                        _request(
                            circuit, theta, coarse_settings, coarse_hyper, strategy
                        )
                    )
                )
            executor = service.stats()["executor"]
            # The dead worker's share ran inline once; nothing re-forked.
            assert executor["worker_fallbacks"] == 1
            assert executor["search_workers"] == 1
            assert service.executor._workers == [survivor]
            # The other worker keeps serving.
            pids = service.executor.run_tasks(_pid, range(4))
            assert survivor.process.pid in pids
            assert service.stats()["executor"]["worker_fallbacks"] == 1
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
            pids = [worker.process.pid for worker in service.executor._workers]
            before = [_context_switches(pid) for pid in pids]
            time.sleep(0.5)
            # A polling loop would wake (and switch) several times here.
            assert [_context_switches(pid) for pid in pids] == before

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
            "assert len(multiprocessing.active_children()) == 2\n"
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

    def test_dropped_service_reaps_its_workers(self):
        service = CompilationService(WORKERS)
        processes = [worker.process for worker in service.executor._workers]
        assert len(processes) == 2
        del service
        gc.collect()
        for process in processes:
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
            assert executor.start_workers() == 2
            with pytest.raises(Exception):
                executor.run_tasks(search_job, broken)
            # The worker's reply to the failed request was drained: the
            # next request reads its own results.
            results = executor.run_tasks(search_job, jobs)
            assert executor.describe()["worker_searches"] == 1
        finally:
            executor.close()
        for result, job in zip(results, jobs):
            inline = search_job(job)
            assert np.array_equal(result.schedule.controls, inline.schedule.controls)
            assert result.total_iterations == inline.total_iterations


class TestWorkerSizing:
    def test_no_worker_on_one_usable_cpu(self, monkeypatch):
        from repro.core.compiler import search_job

        monkeypatch.setattr(executors_module, "_usable_cpus", lambda: 1)
        executor = AutoExecutor()
        assert executor.start_workers() == 0
        jobs = TestRunSearches()._jobs([0.2, 0.6])
        executor.run_tasks(search_job, jobs)
        assert executor.describe()["inline_searches"] == 2
        assert executor.describe()["worker_searches"] == 0

    @pytest.mark.parametrize("cpus, workers", [(1, 0), (2, 2), (3, 2), (64, 2)])
    def test_pool_follows_the_affinity_mask(self, monkeypatch, cpus, workers):
        monkeypatch.undo()  # the real helper, not the fixture's
        if not hasattr(os, "sched_getaffinity"):
            pytest.skip("no affinity mask on this platform")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        with CompilationService(WORKERS) as service:
            pids = {worker.process.pid for worker in service.executor._workers}
            assert len(pids) == workers
            assert service.stats()["executor"]["search_workers"] == workers
            assert pids <= {child.pid for child in multiprocessing.active_children()}

    def test_usable_cpus_reads_the_affinity_mask(self, monkeypatch):
        monkeypatch.undo()  # the real helper, not the fixture's
        if not hasattr(os, "sched_getaffinity"):
            pytest.skip("no affinity mask on this platform")
        assert executors_module._usable_cpus() == len(os.sched_getaffinity(0))
