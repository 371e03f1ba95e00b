"""QueueDispatcher: batch bit-identity, exactly-once, counts, and failure
modes of the ``run_tasks`` route."""

from __future__ import annotations

import threading
from dataclasses import replace

import pytest

from repro.core import PulseCache
from repro.core.compiler import compile_jobs, search_job
from repro.errors import PipelineError
from repro.fleet import FleetWorker, QueueDispatcher
from repro.perf import get_perf_registry
from repro.pipeline import SerialExecutor
from repro.pulse.hamiltonian import build_control_set


def _serial(jobs) -> list:
    return compile_jobs(jobs, PulseCache(), SerialExecutor())


class TestInlineMode:
    def test_zero_workers_compiles_inline(
        self, tmp_path, job_factory, outcomes_identical
    ):
        jobs = [job_factory(0.2), job_factory(0.9)]
        expected = _serial(jobs)
        with QueueDispatcher(tmp_path / "q", workers=0) as dispatcher:
            outcomes = compile_jobs(jobs, PulseCache(), dispatcher)
            info = dispatcher.describe()
        assert outcomes_identical(outcomes, expected)
        assert info["inline_jobs"] == 2
        assert info["dispatched_jobs"] == 0
        assert info["workers_spawned"] == 0

    def test_external_worker_does_not_replace_a_local_one(self, tmp_path):
        """With ``workers=0`` every task runs inline, even while an
        external worker drains the same directory: external workers only
        add capacity beside at least one local worker."""
        with QueueDispatcher(tmp_path / "q", workers=0) as dispatcher:
            worker = FleetWorker(tmp_path / "q", poll_s=0.01)
            thread = threading.Thread(target=worker.run)
            thread.start()
            try:
                assert dispatcher.run_tasks(abs, [-1, -2, -3]) == [1, 2, 3]
            finally:
                worker._drain.set()
                thread.join(timeout=10)
            assert not thread.is_alive()
            info = dispatcher.describe()
        assert info["inline_jobs"] == 3
        assert info["dispatched_jobs"] == 0
        assert worker.jobs_done == 0

    def test_empty_dispatch_is_a_noop(self, tmp_path):
        with QueueDispatcher(tmp_path / "q", workers=2) as dispatcher:
            assert dispatcher.run_tasks(search_job, []) == []
            assert dispatcher.describe()["workers_spawned"] == 0

    def test_map_runs_in_calling_process(self, tmp_path):
        with QueueDispatcher(tmp_path / "q", workers=2) as dispatcher:
            assert dispatcher.map(lambda x: x * x, range(4)) == [0, 1, 4, 9]
            assert dispatcher.describe()["workers_spawned"] == 0


class TestFleetDispatch:
    def test_two_workers_bit_identical_and_exactly_once(
        self, tmp_path, job_factory, outcomes_identical
    ):
        """The milestone-1 acceptance shape: one batch's unique blocks split
        across 2 workers, outcomes bit-identical to serial in-process, each
        block searched exactly once across the fleet."""
        angles = (0.2, 0.5, 0.8, 1.1)
        jobs = [job_factory(a) for a in angles]
        expected = _serial(jobs)
        with QueueDispatcher(
            tmp_path / "q", workers=2, poll_s=0.02
        ) as dispatcher:
            outcomes = compile_jobs(jobs, PulseCache(), dispatcher)
            info = dispatcher.describe()
        assert outcomes_identical(outcomes, expected)
        assert info["workers_spawned"] == 2
        assert info["dispatched_jobs"] == len(jobs)
        assert info["completed_jobs"] == len(jobs)
        # Exactly once: the per-worker completion counts account for every
        # job with none double-searched.
        assert sum(info["completions_by_worker"].values()) == len(jobs)
        # Afterwards the queue directory is fully drained.
        assert dispatcher.queue.status()["pending_jobs"] == 0
        assert dispatcher.queue.status()["leased_jobs"] == 0

    def test_worker_counts_come_home(
        self, tmp_path, job_factory, block_compiler, same_search
    ):
        """A seeded search run by a worker moves this process's warm-start
        counters exactly as running it here does."""
        job = job_factory(0.45)
        seed = block_compiler._find_seed(
            job.key,
            job.target,
            build_control_set(job.device, job.device_qubits),
            job.gate_based_ns,
        )
        assert seed is not None  # two-qubit blocks get a KAK seed
        job = replace(job, seed=seed)
        perf = get_perf_registry()
        with perf.counts_moved() as inline_counts:
            inline = search_job(job)
        with QueueDispatcher(
            tmp_path / "q", workers=1, poll_s=0.02
        ) as dispatcher:
            with perf.counts_moved() as fleet_counts:
                [remote] = dispatcher.run_tasks(search_job, [job])
            assert dispatcher.describe()["completed_jobs"] == 1
        assert same_search(remote, inline)
        assert inline_counts["grape.warm_start.seeded_iterations"] > 0
        assert fleet_counts == inline_counts

    def test_worker_failure_raises_pipeline_error(self, tmp_path, job_factory):
        job = job_factory(0.4)
        job.device_qubits = (5, 7)  # off the 2-qubit device: search raises
        with QueueDispatcher(
            tmp_path / "q", workers=1, poll_s=0.02
        ) as dispatcher:
            with pytest.raises(PipelineError, match="failed job"):
                dispatcher.run_tasks(search_job, [job])

    def test_no_progress_timeout_raises(self, tmp_path, job_factory):
        """A fleet that looks alive but never completes anything must hit
        the no-progress deadline and report, not hang forever."""
        dispatcher = QueueDispatcher(
            tmp_path / "q", workers=1, poll_s=0.01, job_timeout_s=0.2
        )
        # Sabotage the fleet: the dispatcher believes one worker is alive,
        # but nothing ever drains the queue.
        dispatcher._ensure_workers = lambda: None
        dispatcher._live_workers = lambda: 1
        with pytest.raises(PipelineError, match="no progress"):
            dispatcher.run_tasks(search_job, [job_factory(0.3)])
        dispatcher.close()
