"""BlockJob round-trips: dispatch-as-data must change nothing observable.

The tentpole contract: a job built by ``make_job`` compiles bit-identically
to ``compile_block`` on the same block through ``compile_jobs`` on every
executor, and its seed-carrying search (``search_job``) returns the same
result in a bare subprocess that unpickles the job cold.
"""

from __future__ import annotations

import pickle
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.parameters import Parameter
from repro.core import PersistentPulseCache, PulseCache
from repro.core.compiler import BlockPulseCompiler, compile_jobs, search_job
from repro.errors import CompilationError
from repro.perf import get_perf_registry
from repro.pipeline import SerialExecutor
from repro.pipeline.jobs import BlockJob
from repro.pulse.device import GmonDevice
from repro.pulse.grape.engine import GrapeHyperparameters, GrapeSettings
from repro.pulse.hamiltonian import build_control_set
from repro.transpile.topology import line_topology

SETTINGS = GrapeSettings(dt_ns=0.5, target_fidelity=0.95)
HYPER = GrapeHyperparameters(0.05, 0.002, max_iterations=120)
SRC_ROOT = Path(repro.__file__).resolve().parent.parent

#: Search a pickled job in a bare interpreter and pickle the result.
_SUBPROCESS_RUNNER = (
    "import sys, pickle; sys.path.insert(0, sys.argv[1]); "
    "from repro.core.compiler import search_job; "
    "job = pickle.load(open(sys.argv[2], 'rb')); "
    "pickle.dump(search_job(job), open(sys.argv[3], 'wb'))"
)


def _block(angle: float = 0.3) -> QuantumCircuit:
    circuit = QuantumCircuit(2)
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.rz(angle, 1)
    return circuit


def _compiler(cache=None) -> BlockPulseCompiler:
    return BlockPulseCompiler(
        GmonDevice(line_topology(2)),
        SETTINGS,
        HYPER,
        cache if cache is not None else PulseCache(),
        warm_start=False,
    )


def _seeded(job: BlockJob) -> BlockJob:
    """``job`` with the warm-start seed a warm-start compiler resolves
    for it (two-qubit blocks always get a KAK seed)."""
    compiler = BlockPulseCompiler(
        GmonDevice(line_topology(2)), SETTINGS, HYPER, PulseCache()
    )
    seed = compiler._find_seed(
        job.key,
        job.target,
        build_control_set(job.device, job.device_qubits),
        job.gate_based_ns,
    )
    assert seed is not None
    return replace(job, seed=seed)


def _serial(jobs: list, cache=None) -> list:
    cache = cache if cache is not None else PulseCache()
    return compile_jobs(jobs, cache, SerialExecutor())


class TestMakeJob:
    def test_job_carries_resolved_identity(self):
        compiler = _compiler()
        job = compiler.make_job(_block(), (0, 1))
        assert isinstance(job, BlockJob)
        assert job.device_qubits == (0, 1)
        assert job.gate_based_ns > 0
        # Preset-deferred settings fields are materialized at build time.
        assert job.settings.dt_ns == SETTINGS.resolved_dt()
        assert job.settings.target_fidelity == SETTINGS.resolved_target()
        assert job.warm_start is False
        assert job.seed is None

    def test_trivial_block_yields_no_job(self):
        assert _compiler().make_job(QuantumCircuit(2), (0, 1)) is None

    def test_parameterized_block_rejected(self):
        circuit = QuantumCircuit(2)
        circuit.rz(Parameter("theta"), 0)
        with pytest.raises(CompilationError):
            _compiler().make_job(circuit, (0, 1))

    def test_pickle_roundtrip_preserves_identity(self):
        job = _seeded(_compiler().make_job(_block(), (0, 1)))
        clone = pickle.loads(pickle.dumps(job, pickle.HIGHEST_PROTOCOL))
        assert clone.key == job.key
        assert np.array_equal(clone.target, job.target)
        assert clone.device_qubits == job.device_qubits
        assert clone.gate_based_ns == job.gate_based_ns
        assert clone.settings == job.settings
        assert np.array_equal(clone.seed.controls, job.seed.controls)


class TestCompileJobs:
    def test_matches_compile_block_bit_for_bit(self, outcomes_identical):
        block = _block(0.8)
        direct = _compiler().compile_block(block, (0, 1))
        job = _compiler().make_job(block, (0, 1))
        assert outcomes_identical(_serial([job]), [direct])

    def test_subprocess_search_is_bit_identical(self, tmp_path):
        """Pickle a seed-carrying job → search it in a bare subprocess →
        the same result as searching it here."""
        job = _seeded(_compiler().make_job(_block(0.4), (0, 1)))
        job_path = tmp_path / "job.pkl"
        job_path.write_bytes(pickle.dumps(job, pickle.HIGHEST_PROTOCOL))
        result_path = tmp_path / "result.pkl"
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                _SUBPROCESS_RUNNER,
                str(SRC_ROOT),
                str(job_path),
                str(result_path),
            ],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        remote = pickle.loads(result_path.read_bytes())
        local = search_job(job)
        assert remote.schedule.controls.tobytes() == local.schedule.controls.tobytes()
        assert remote.duration_ns == local.duration_ns
        assert remote.total_iterations == local.total_iterations
        assert remote.probes == local.probes

    def test_results_land_in_the_callers_library(self, tmp_path):
        """``compile_jobs`` writes to the cache it is given — here a disk
        library — and a fresh cache object over the same directory hits."""
        library = tmp_path / "lib"
        job = _compiler().make_job(_block(0.9), (0, 1))
        [first] = _serial([job], PersistentPulseCache(library))
        assert first.cache_hit is False
        [second] = _serial([job], PersistentPulseCache(library))
        assert second.cache_hit is True
        assert second.duration_ns == first.duration_ns
        assert PersistentPulseCache(library).get(job.key) is not None

    def test_search_touches_no_cache(self, tmp_path):
        """The pure search reads nothing but its job: it leaves the
        caller's cache as it found it."""
        cache = PulseCache()
        job = _compiler(cache).make_job(_block(0.2), (0, 1))
        search_job(job)
        assert cache.get(job.key) is None
        [outcome] = _serial([job], cache)
        assert cache.get(job.key) is not None
        assert outcome.cache_hit is False


class TestCompileJobsAcrossExecutors:
    @pytest.mark.parametrize("executor_name", ["serial", "auto"])
    def test_compile_jobs_matches_serial(
        self, executor_name, outcomes_identical
    ):
        from repro.pipeline import resolve_executor

        jobs = [_compiler().make_job(_block(a), (0, 1)) for a in (0.25, 0.75)]
        expected = _serial(jobs)
        executor = resolve_executor(executor_name)
        outcomes = compile_jobs(jobs, PulseCache(), executor)
        assert outcomes_identical(outcomes, expected)

    @pytest.mark.parametrize("executor_name", ["serial", "auto"])
    def test_repeated_key_is_served_from_the_first(
        self, executor_name, outcomes_identical
    ):
        """Compiling jobs one by one against one cache: the second job with
        a key is a cache hit on the first one's pulse."""
        from repro.pipeline import resolve_executor

        job = _compiler().make_job(_block(0.35), (0, 1))
        cache = PulseCache()
        expected = [
            outcome for _ in range(2) for outcome in _serial([job], cache)
        ]
        executor = resolve_executor(executor_name)
        outcomes = compile_jobs([job, job], PulseCache(), executor)
        assert outcomes_identical(outcomes, expected)
        assert outcomes[1].cache_hit is True


class TestSearchJob:
    def test_counted_search_returns_its_counts(self):
        compiler = BlockPulseCompiler(
            GmonDevice(line_topology(2)), SETTINGS, HYPER, PulseCache()
        )
        job = compiler.make_job(_block(0.5), (0, 1))
        control_set = build_control_set(job.device, job.device_qubits)
        seed = compiler._find_seed(
            job.key, job.target, control_set, job.gate_based_ns
        )
        assert seed is not None  # two-qubit blocks get a KAK seed
        seeded = replace(job, seed=seed)
        plain = search_job(seeded)
        # How the forked search worker captures what it ships back.
        with get_perf_registry().counts_moved() as counts:
            result = search_job(seeded)
        assert np.array_equal(result.schedule.controls, plain.schedule.controls)
        assert result.total_iterations == plain.total_iterations
        assert counts["grape.warm_start.seeded_iterations"] > 0
        assert (
            counts.get("grape.warm_start.accepted", 0)
            + counts.get("grape.warm_start.rejected", 0)
            == 1
        )
