"""BlockJob round-trips: dispatch-as-data must change nothing observable.

The tentpole contract: a job built by ``make_job`` compiles bit-identically
to ``compile_block`` on the same block — in this process, through
``run_block_job``, and in a bare subprocess that unpickles the job cold.
"""

from __future__ import annotations

import json
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
from repro.core.cache import _key_filename
from repro.core.compiler import BlockPulseCompiler, search_job
from repro.errors import CompilationError
from repro.pipeline.jobs import (
    BlockJob,
    _decode_outcome,
    _encode_outcome,
    run_block_job,
    search_block_job_counted,
)
from repro.pulse.device import GmonDevice
from repro.pulse.grape.engine import GrapeHyperparameters, GrapeSettings
from repro.pulse.hamiltonian import build_control_set
from repro.transpile.topology import line_topology

SETTINGS = GrapeSettings(dt_ns=0.5, target_fidelity=0.95)
HYPER = GrapeHyperparameters(0.05, 0.002, max_iterations=120)
SRC_ROOT = Path(repro.__file__).resolve().parent.parent

#: Compile a pickled job in a bare interpreter and emit the encoded outcome.
_SUBPROCESS_RUNNER = (
    "import sys, json, pickle; sys.path.insert(0, sys.argv[1]); "
    "from repro.pipeline.jobs import run_block_job, _encode_outcome; "
    "job = pickle.load(open(sys.argv[2], 'rb')); "
    "print(json.dumps(_encode_outcome(run_block_job(job))))"
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
        assert job.preset
        assert job.name == _key_filename(job.key)

    def test_trivial_block_yields_no_job(self):
        assert _compiler().make_job(QuantumCircuit(2), (0, 1)) is None

    def test_parameterized_block_rejected(self):
        circuit = QuantumCircuit(2)
        circuit.rz(Parameter("theta"), 0)
        with pytest.raises(CompilationError):
            _compiler().make_job(circuit, (0, 1))

    def test_pickle_roundtrip_preserves_identity(self):
        job = _compiler().make_job(_block(), (0, 1))
        clone = pickle.loads(pickle.dumps(job, pickle.HIGHEST_PROTOCOL))
        assert clone.key == job.key
        assert np.array_equal(clone.target, job.target)
        assert clone.device_qubits == job.device_qubits
        assert clone.gate_based_ns == job.gate_based_ns
        assert clone.settings == job.settings
        assert clone.preset == job.preset


class TestRunBlockJob:
    def test_matches_compile_block_bit_for_bit(self):
        block = _block(0.8)
        direct = _compiler().compile_block(block, (0, 1))
        job = _compiler().make_job(block, (0, 1))
        via_job = run_block_job(job, cache=PulseCache())
        assert _encode_outcome(via_job) == _encode_outcome(direct)

    def test_subprocess_compile_is_bit_identical(self, tmp_path):
        """Pickle → compile in a bare subprocess → identical outcome."""
        job = _compiler().make_job(_block(0.4), (0, 1))
        job_path = tmp_path / "job.pkl"
        job_path.write_bytes(pickle.dumps(job, pickle.HIGHEST_PROTOCOL))
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                _SUBPROCESS_RUNNER,
                str(SRC_ROOT),
                str(job_path),
            ],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        remote = json.loads(proc.stdout)
        local = _encode_outcome(run_block_job(job, cache=PulseCache()))
        assert remote == local

    def test_cache_dir_routes_through_the_shared_library(self, tmp_path):
        job = _compiler().make_job(
            _block(0.9), (0, 1), cache_dir=str(tmp_path / "lib")
        )
        assert job.cache_dir == str(tmp_path / "lib")
        first = run_block_job(job)
        assert first.cache_hit is False
        # A second run (fresh cache object, same directory) must hit.
        second = run_block_job(job)
        assert second.cache_hit is True
        assert second.duration_ns == first.duration_ns
        assert PersistentPulseCache(job.cache_dir).get(job.key) is not None

    def test_shared_cache_wins_over_cache_dir(self, tmp_path):
        job = _compiler().make_job(
            _block(0.2), (0, 1), cache_dir=str(tmp_path / "lib")
        )
        cache = PulseCache()
        run_block_job(job, cache=cache)
        # The explicit cache was used: nothing landed in the directory.
        assert cache.get(job.key) is not None
        assert not (tmp_path / "lib").exists()


class TestOutcomeCodec:
    def test_outcome_roundtrips_bit_identically(self):
        outcome = _compiler().compile_block(_block(0.6), (0, 1))
        decoded = _decode_outcome(_encode_outcome(outcome))
        assert decoded.duration_ns == outcome.duration_ns
        assert decoded.gate_based_ns == outcome.gate_based_ns
        assert decoded.iterations == outcome.iterations
        assert decoded.fidelity == outcome.fidelity
        assert decoded.schedule.qubits == outcome.schedule.qubits
        assert np.array_equal(
            decoded.schedule.controls, outcome.schedule.controls
        )
        # And through an actual JSON wire format, repr-float exact.
        wired = _decode_outcome(json.loads(json.dumps(_encode_outcome(outcome))))
        assert np.array_equal(
            wired.schedule.controls, outcome.schedule.controls
        )


class TestExecutorDispatchJobs:
    @pytest.mark.parametrize(
        "executor_name", ["serial", "auto", "thread", "process"]
    )
    def test_dispatch_jobs_matches_serial(self, executor_name):
        from repro.pipeline import resolve_executor

        jobs = [_compiler().make_job(_block(a), (0, 1)) for a in (0.25, 0.75)]
        expected = [
            _encode_outcome(run_block_job(job, cache=PulseCache()))
            for job in jobs
        ]
        executor = resolve_executor(executor_name, max_workers=2)
        outcomes = executor.dispatch_jobs(jobs, cache=PulseCache())
        assert [_encode_outcome(o) for o in outcomes] == expected

    @pytest.mark.parametrize("executor_name", ["serial", "process"])
    def test_repeated_key_is_served_from_the_first(self, executor_name):
        """Compiling jobs one by one against one cache: the second job with
        a key is a cache hit on the first one's pulse."""
        from repro.pipeline import resolve_executor

        job = _compiler().make_job(_block(0.35), (0, 1))
        cache = PulseCache()
        expected = [
            _encode_outcome(run_block_job(job, cache=cache)) for _ in range(2)
        ]
        executor = resolve_executor(executor_name, max_workers=2)
        outcomes = executor.dispatch_jobs([job, job], cache=PulseCache())
        assert [_encode_outcome(o) for o in outcomes] == expected
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
        result, counts = search_block_job_counted(seeded)
        assert np.array_equal(result.schedule.controls, plain.schedule.controls)
        assert result.total_iterations == plain.total_iterations
        assert counts["grape.warm_start.seeded_iterations"] > 0
        assert (
            counts.get("grape.warm_start.accepted", 0)
            + counts.get("grape.warm_start.rejected", 0)
            == 1
        )
