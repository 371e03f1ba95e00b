"""Block-executor contracts: ordering, equivalence, and configuration."""

import os
import time
from functools import partial

import numpy as np
import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.errors import PipelineError
from repro.pipeline import SerialExecutor, resolve_executor
from repro.pulse.device import GmonDevice
from repro.pulse.grape.engine import GrapeHyperparameters, GrapeSettings
from repro.service import CompilationService, CompileRequest, ServiceConfig
from repro.transpile.topology import line_topology

SETTINGS = GrapeSettings(dt_ns=0.25, target_fidelity=0.99)
HYPER = GrapeHyperparameters(learning_rate=0.05, decay_rate=0.002, max_iterations=200)


def _square(x):
    return x * x


def _mark(directory, delay_s, index):
    """A pure task that fails if its index ever runs twice; returns the
    process that ran it."""
    with open(os.path.join(directory, str(index)), "x"):
        pass
    time.sleep(delay_s)
    return os.getpid(), index


def _fail_at(bad, index):
    if index == bad:
        raise ValueError(f"task {index} failed")
    time.sleep(0.02)
    return index


def _tile_circuit(num_qubits: int = 4) -> QuantumCircuit:
    """Disjoint 2-qubit tiles — one independent GRAPE block each."""
    circuit = QuantumCircuit(num_qubits, name="tiles")
    for q in range(0, num_qubits - 1, 2):
        circuit.h(q)
        circuit.cx(q, q + 1)
        circuit.rz(0.2 + 0.3 * q, q + 1)
    return circuit


def _request(circuit, values=None, strategy="full-grape", executor="serial"):
    """One request on a fresh service (empty cache and scheduler state)
    whose block executor is ``executor``: a name, or an executor instance
    swapped in before the first request."""
    named = isinstance(executor, str)
    with CompilationService(
        config=ServiceConfig(executor=executor if named else "serial"),
        device=GmonDevice(line_topology(circuit.num_qubits)),
        settings=SETTINGS,
        hyperparameters=HYPER,
    ) as service:
        if not named:
            service.executor = executor
        return service.compile(
            CompileRequest(circuit, values, strategy=strategy, max_block_width=2)
        )


def _compile(executor, num_qubits=4):
    return _request(_tile_circuit(num_qubits), executor=executor).compiled


class TestResolveExecutor:
    def test_names(self):
        from repro.pipeline.executors import AutoExecutor

        assert isinstance(resolve_executor("serial"), SerialExecutor)
        assert isinstance(resolve_executor("auto"), AutoExecutor)

    def test_instance_passthrough(self, threaded_executor):
        assert resolve_executor(threaded_executor) is threaded_executor

    @pytest.mark.parametrize(
        "name", ["gpu", "thread", "process", "thread-persistent", "process-persistent"]
    )
    def test_unknown_name_rejected(self, name):
        with pytest.raises(PipelineError, match="'serial', 'auto'"):
            resolve_executor(name)

    def test_default_follows_config(self, monkeypatch):
        from repro.pipeline.executors import AutoExecutor
        from repro.service import ServiceConfig

        # ``None`` is the ServiceConfig default, whatever the environment.
        monkeypatch.setenv("REPRO_EXECUTOR", "serial")
        assert ServiceConfig().executor == "auto"
        assert isinstance(resolve_executor(None), AutoExecutor)
        config = ServiceConfig(executor="serial")
        assert isinstance(resolve_executor(config.executor), SerialExecutor)


class TestAutoExecutor:
    """``auto`` is inline and batched on every host; only its forked
    search worker depends on the CPUs the process may use."""

    def test_resolves_to_auto_executor(self):
        from repro.pipeline.executors import AutoExecutor

        executor = resolve_executor("auto")
        assert isinstance(executor, AutoExecutor)
        assert executor.name == "auto"

    def test_auto_is_a_registered_choice_and_the_default(self):
        from repro.config import EXECUTOR_CHOICES
        from repro.service.config import ServiceConfig

        assert EXECUTOR_CHOICES == ("serial", "auto")
        assert ServiceConfig().executor == "auto"

    @pytest.mark.parametrize("cores", [1, 2, 4, 64])
    def test_policy_is_the_same_on_every_host(self, monkeypatch, cores):
        import repro.pipeline.executors as executors_module

        monkeypatch.setattr(executors_module.os, "cpu_count", lambda: cores)
        assert executors_module.AutoExecutor().prefers_batched is True

    @pytest.mark.parametrize("cores", [2, 8])
    def test_inline_mode_runs_in_calling_thread(self, monkeypatch, cores):
        import threading

        import repro.pipeline.executors as executors_module

        monkeypatch.setattr(executors_module.os, "cpu_count", lambda: cores)
        executor = executors_module.AutoExecutor()
        seen = []
        result = executor.map(
            lambda x: seen.append(threading.current_thread()) or x * x,
            range(5),
        )
        assert result == [x * x for x in range(5)]
        assert all(t is threading.main_thread() for t in seen)

    def test_describe_reports_search_counters(self):
        info = resolve_executor("auto").describe()
        assert info == {
            "executor": "auto",
            "search_workers": 0,
            "worker_searches": 0,
            "inline_searches": 0,
            "worker_fallbacks": 0,
            "handoffs": 0,
        }

    def test_serial_prefers_batched_pools_do_not(self, threaded_executor):
        assert SerialExecutor().prefers_batched is True
        assert resolve_executor("auto").prefers_batched is True
        assert threaded_executor.prefers_batched is False

    def test_auto_compile_matches_serial(self):
        serial = _compile("serial")
        auto = _compile("auto")
        assert auto.blocks_compiled == serial.blocks_compiled
        assert np.isclose(auto.pulse_duration_ns, serial.pulse_duration_ns)
        for ours, theirs in zip(
            auto.program.schedules, serial.program.schedules
        ):
            np.testing.assert_allclose(ours.controls, theirs.controls)


class TestMapContract:
    @pytest.mark.parametrize("executor_name", ["serial", "auto"])
    def test_order_preserved(self, executor_name):
        executor = resolve_executor(executor_name)
        assert executor.map(_square, range(7)) == [x * x for x in range(7)]

    def test_empty_items(self, threaded_executor):
        for executor in (SerialExecutor(), resolve_executor("auto"), threaded_executor):
            assert executor.map(_square, []) == []

    def test_describe_names_the_executor(self):
        assert SerialExecutor().describe() == {"executor": "serial"}


@pytest.fixture
def executor(monkeypatch):
    """An ``auto`` executor with a pool of two search workers, even on a
    1-CPU host."""
    import repro.pipeline.executors as executors_module

    monkeypatch.setattr(executors_module, "_usable_cpus", lambda: 2)
    executor = executors_module.AutoExecutor()
    assert executor.start_workers() == 2
    yield executor
    executor.close()


class TestClaimLoop:
    """A request alone in ``run_tasks`` and one search worker claim task
    indices from one shared counter."""

    def test_every_index_runs_once_and_index_0_here(self, executor, tmp_path):
        for round_ in range(3):
            directory = tmp_path / str(round_)
            directory.mkdir()
            # 20 ms per task: long enough that the worker claims a share.
            task = partial(_mark, str(directory), 0.02)
            results = executor.run_tasks(task, range(8))
            assert [index for _, index in results] == list(range(8))
            assert sorted(os.listdir(directory)) == sorted(map(str, range(8)))
            pids = [pid for pid, _ in results]
            assert pids[0] == os.getpid()
            # Alone, a request shares with the first idle worker only.
            assert set(pids) == {os.getpid(), executor._workers[0].process.pid}
        info = executor.describe()
        assert info["worker_searches"] + info["inline_searches"] == 24
        assert info["worker_fallbacks"] == 0

    def test_many_short_tasks_each_run_once(self, executor, tmp_path):
        """Stress the shared counter: with tasks far shorter than a claim
        round trip, a lost update would run an index on both sides."""
        deadline = time.monotonic() + 60
        for round_ in range(5):
            directory = tmp_path / str(round_)
            directory.mkdir()
            task = partial(_mark, str(directory), 0.0)
            results = executor.run_tasks(task, range(300))
            assert [index for _, index in results] == list(range(300))
            assert len(os.listdir(directory)) == 300
            assert time.monotonic() < deadline
        assert executor.describe()["worker_fallbacks"] == 0

    @pytest.mark.parametrize("bad", [0, 5])
    def test_raising_task_leaves_the_worker_usable(self, executor, bad):
        with pytest.raises(ValueError, match=f"task {bad} failed"):
            executor.run_tasks(partial(_fail_at, bad), range(6))
        # Neither side's leftovers leak into the next call.
        items = range(100, 106)
        assert executor.run_tasks(partial(_fail_at, -1), items) == list(items)
        assert executor.describe()["search_workers"] == 2
        assert executor.describe()["worker_fallbacks"] == 0


class TestOverlappingRequests:
    """A request that enters ``run_tasks`` while another is in it hands
    its whole task list to an idle worker."""

    def _overlap(self, executor, tmp_path, first_n, second_n):
        """Run ``second_n`` tasks while a ``first_n``-task request is in
        ``run_tasks``; both requests' results."""
        import threading

        results = {}
        first = threading.Thread(
            target=lambda: results.update(
                first=executor.run_tasks(
                    partial(_mark, str(tmp_path / "first"), 0.3), range(first_n)
                )
            )
        )
        (tmp_path / "first").mkdir()
        (tmp_path / "second").mkdir()
        first.start()
        # The first request, alone, holds the first worker from here on.
        deadline = time.monotonic() + 30
        while not executor._workers[0].busy.locked():
            assert time.monotonic() < deadline
            time.sleep(0.001)
        results["second"] = executor.run_tasks(
            partial(_mark, str(tmp_path / "second"), 0.02), range(second_n)
        )
        first.join(60)
        assert not first.is_alive()
        return results["first"], results["second"]

    def test_one_task_runs_on_a_worker(self, executor, tmp_path):
        first, second = self._overlap(executor, tmp_path, 3, 1)
        workers = [worker.process.pid for worker in executor._workers]
        assert [index for _, index in first] == [0, 1, 2]
        assert first[0][0] == os.getpid()
        assert workers[0] in {pid for pid, _ in first}
        # The second request runs nothing under this interpreter's lock.
        assert second == [(workers[1], 0)]
        info = executor.describe()
        assert info["handoffs"] == 1
        assert info["worker_searches"] + info["inline_searches"] == 4

    def test_whole_list_runs_on_the_other_worker(self, executor, tmp_path):
        first, second = self._overlap(executor, tmp_path, 2, 6)
        workers = [worker.process.pid for worker in executor._workers]
        assert [index for _, index in second] == list(range(6))
        assert {pid for pid, _ in second} == {workers[1]}
        assert sorted(os.listdir(tmp_path / "second")) == sorted(map(str, range(6)))
        assert executor.describe()["handoffs"] == 1

    def test_many_overlapping_requests_run_each_task_once(self, executor, tmp_path):
        """More request threads than workers and CPUs, with a short switch
        interval: a lost update to the request count or a worker claimed
        twice would run an index twice or lose a result."""
        import sys
        import threading

        rounds, tasks = 10, 5
        outcomes = {}

        def client(name):
            try:
                for round_ in range(rounds):
                    directory = tmp_path / f"{name}-{round_}"
                    directory.mkdir()
                    task = partial(_mark, str(directory), 0.001)
                    results = executor.run_tasks(task, range(tasks))
                    assert [index for _, index in results] == list(range(tasks))
                    assert len(os.listdir(directory)) == tasks
                outcomes[name] = "ok"
            except Exception as exc:  # noqa: BLE001 — reported below
                outcomes[name] = exc

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=client, args=(name,)) for name in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert outcomes == {name: "ok" for name in range(6)}
        info = executor.describe()
        assert info["worker_searches"] + info["inline_searches"] == 6 * rounds * tasks
        assert info["worker_fallbacks"] == 0
        assert info["search_workers"] == 2
        assert executor._running == 0

    def test_no_idle_worker_runs_inline(self, executor, tmp_path):
        for worker in executor._workers[1:]:
            worker.busy.acquire()
        try:
            _, second = self._overlap(executor, tmp_path, 2, 2)
        finally:
            for worker in executor._workers[1:]:
                worker.busy.release()
        assert {pid for pid, _ in second} == {os.getpid()}
        assert executor.describe()["handoffs"] == 0


class TestExecutorEquivalence:
    """Serial and overlapping block compilation must be indistinguishable."""

    @pytest.fixture(scope="class")
    def serial_result(self):
        return _compile("serial")

    def test_thread_matches_serial(self, serial_result, threaded_executor):
        threaded = _compile(threaded_executor)
        assert threaded.blocks_compiled == serial_result.blocks_compiled
        assert np.isclose(
            threaded.pulse_duration_ns, serial_result.pulse_duration_ns
        )
        for ours, theirs in zip(
            threaded.program.schedules, serial_result.program.schedules
        ):
            assert ours.qubits == theirs.qubits
            np.testing.assert_allclose(ours.controls, theirs.controls)

    def test_process_matches_serial(self, serial_result, monkeypatch):
        """The ``auto`` executor's forked search worker is the one process
        venue left."""
        import repro.pipeline.executors as executors_module

        # Fork the worker even on a 1-CPU host.
        monkeypatch.setattr(executors_module, "_usable_cpus", lambda: 2)
        executor = executors_module.AutoExecutor()
        executor.start_workers()
        try:
            forked = _compile(executor)
        finally:
            executor.close()
        assert forked.blocks_compiled == serial_result.blocks_compiled
        assert np.isclose(forked.pulse_duration_ns, serial_result.pulse_duration_ns)
        for ours, theirs in zip(
            forked.program.schedules, serial_result.program.schedules
        ):
            np.testing.assert_allclose(ours.controls, theirs.controls)

    def test_executor_recorded_in_metadata(self, threaded_executor):
        result = _compile(threaded_executor)
        assert result.metadata["executor"] == {"executor": "threaded"}


class TestPartialCompilerExecutors:
    """The partial-compilation precompute phases parallelize identically."""

    def test_strict_precompile_thread_matches_serial(self, threaded_executor):
        from repro.circuits.parameters import Parameter

        theta = Parameter("theta_0")
        qc = QuantumCircuit(2).h(0).h(1).cx(0, 1)
        qc.rz(theta, 1)
        qc.cx(0, 1)

        def build(executor):
            return _request(
                qc, strategy="strict-partial", executor=executor
            ).compiler

        serial = build("serial")
        threaded = build(threaded_executor)
        assert threaded.report.executor == "threaded"
        assert serial.report.blocks_precompiled == threaded.report.blocks_precompiled
        assert np.isclose(
            serial.compile([0.4]).pulse_duration_ns,
            threaded.compile([0.4]).pulse_duration_ns,
        )
