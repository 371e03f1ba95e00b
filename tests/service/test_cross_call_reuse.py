"""A long-lived CompilationService: cross-call block dedup and lifecycle."""

import time

import numpy as np
import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.parameters import Parameter
from repro.core import PulseCache
from repro.core.compiler import BlockPulseCompiler
from repro.errors import PipelineError
from repro.perf import get_perf_registry
from repro.pipeline.strategies import full_grape_pipeline
from repro.pulse.device import GmonDevice
from repro.pulse.grape.engine import GrapeHyperparameters, GrapeSettings
from repro.service import CompilationService, CompileRequest, ServiceConfig
from repro.transpile.topology import line_topology

SETTINGS = GrapeSettings(dt_ns=0.5, target_fidelity=0.95)
HYPER = GrapeHyperparameters(0.05, 0.002, max_iterations=120)


class CountingCache(PulseCache):
    """Records every key GRAPE actually computed (put) for."""

    def __init__(self):
        super().__init__()
        self.put_keys = []

    def put(self, key, entry, target=None):
        self.put_keys.append(key)
        super().put(key, entry, target=target)


def _ansatz() -> QuantumCircuit:
    """Two identical fixed entangler tiles plus one θ-dependent tile."""
    circuit = QuantumCircuit(6)
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.h(2)
    circuit.cx(2, 3)
    circuit.rz(Parameter("theta"), 4)
    circuit.cx(4, 5)
    return circuit


def _service(cache=None, **config) -> CompilationService:
    """A fresh full-GRAPE service at block width 2; ``cache`` replaces its
    empty in-memory pulse cache."""
    service = CompilationService(
        config=ServiceConfig(executor="serial", **config),
        device=GmonDevice(line_topology(6)),
        settings=SETTINGS,
        hyperparameters=HYPER,
        max_block_width=2,
    )
    if cache is not None:
        service.cache = cache
    return service


def _compile(service, circuit):
    """One bound circuit through the service's full-GRAPE strategy."""
    return service.compile(
        CompileRequest(circuit, strategy="full-grape", max_block_width=2)
    ).compiled


class TestCrossCallReuse:
    def test_shared_fixed_blocks_grape_exactly_once_across_two_calls(self):
        """The same ansatz at two parameter sets: each shared fixed block
        is dispatched to GRAPE exactly once across BOTH calls, asserted
        via scheduler counters and cache puts."""
        cache = CountingCache()
        ansatz = _ansatz()
        with _service(cache) as service:
            first = service.compile_parametrized(ansatz, [0.3])
            second = service.compile_parametrized(ansatz, [1.1])

        sched1 = first.metadata["scheduler"]
        sched2 = second.metadata["scheduler"]
        # Call 1: the h+cx tile appears twice (translated) → one dispatch;
        # the tile carrying Rz(θ=0.3) is its own unitary → one dispatch.
        assert sched1["dispatched_tasks"] == 2
        assert sched1["deduped_blocks"] == 1
        assert sched1["reused_blocks"] == 0
        # Call 2: both h+cx occurrences reuse call 1's pulse; only the new
        # θ=1.1 tile dispatches.
        assert sched2["reused_blocks"] == 2
        assert sched2["dispatched_tasks"] == 1
        assert sched2["deduped_blocks"] == 0
        # GRAPE ran once per unique block across the service's lifetime:
        # the shared tile once, plus one θ tile per call.
        assert len(cache.put_keys) == 3
        assert len(set(cache.put_keys)) == 3

    def test_steady_state_iterations_reuse_blocks_and_beat_the_cold_one(self):
        """A θ stream through the driver hook: every iteration after the
        first reuses the two fixed tiles and dispatches fewer tasks than
        iteration 0, and the best later iteration beats the cold one."""
        ansatz = QuantumCircuit(6)
        for q, angle in ((0, 0.3), (2, 1.1)):
            ansatz.h(q).cx(q, q + 1).rz(angle, q + 1).cx(q, q + 1)
        ansatz.rz(Parameter("theta"), 4).cx(4, 5)
        rng = np.random.default_rng(3)
        walls, schedulers = [], []
        with _service() as service:
            for _ in range(4):
                theta = float(rng.uniform(-np.pi / 2, np.pi / 2))
                start = time.perf_counter()
                result = service.compile_parametrized(ansatz, [theta])
                walls.append(time.perf_counter() - start)
                schedulers.append(result.metadata["scheduler"])
        cold, *steady = schedulers
        assert cold["reused_blocks"] == 0
        assert all(s["reused_blocks"] > 0 for s in steady)
        assert all(s["dispatched_tasks"] < cold["dispatched_tasks"] for s in steady)
        assert min(walls[1:]) < walls[0], walls

    def test_identical_repeat_call_dispatches_nothing(self):
        circuit = QuantumCircuit(2).h(0).cx(0, 1)
        with _service() as service:
            _compile(service, circuit)
            repeat = _compile(service, circuit)
        scheduler = repeat.metadata["scheduler"]
        assert scheduler["dispatched_tasks"] == 0
        assert scheduler["reused_blocks"] == scheduler["total_blocks"]
        assert repeat.runtime_iterations == 0

    def test_reuse_is_never_worse_than_gate_based(self):
        ansatz = _ansatz()
        with _service() as service:
            first = service.compile_parametrized(ansatz, [0.2])
            second = service.compile_parametrized(ansatz, [0.2])
        assert second.pulse_duration_ns == pytest.approx(first.pulse_duration_ns)

    def test_single_request_matches_a_plain_pipeline_run(self):
        """A fresh service adds nothing to a single circuit's pulses: its
        full-GRAPE request equals the pulse pipeline run on its own."""
        circuit = QuantumCircuit(4).h(0).cx(0, 1).h(2).cx(2, 3)
        with _service() as service:
            via_service = _compile(service, circuit)
        plain = full_grape_pipeline(
            BlockPulseCompiler(
                GmonDevice(line_topology(6)), SETTINGS, HYPER, PulseCache()
            ),
            2,
        ).run(circuit)
        assert via_service.pulse_duration_ns == pytest.approx(
            plain.program.duration_ns
        )
        assert via_service.blocks_compiled == len(plain.block_results)

    def test_perf_counter_records_cross_call_reuse(self):
        registry = get_perf_registry()
        before = registry.counter("scheduler.reused_blocks")
        circuit = QuantumCircuit(2).h(0).cx(0, 1)
        with _service() as service:
            _compile(service, circuit)
            _compile(service, circuit)
        assert registry.counter("scheduler.reused_blocks") == before + 1


class TestBatchAndStats:
    def test_compile_batch_mixes_batch_dedup_and_cross_call_reuse(self):
        circuit = QuantumCircuit(2).h(0).cx(0, 1)
        requests = [
            CompileRequest(circuit, strategy="full-grape", max_block_width=2)
        ] * 2
        with _service() as service:
            first = service.compile_batch(requests)
            results = service.compile_batch(requests)
            stats = service.stats()
        assert first[0].metadata["scheduler"]["dispatched_tasks"] == 1
        assert results[0].metadata["scheduler"]["reused_blocks"] == 2
        assert stats["cache"]["entries"] == 1
        assert stats["requests"]["by_strategy"]["full-grape"] == 4

    def test_empty_batch(self):
        with _service() as service:
            assert service.compile_batch([]) == []
            assert service.stats()["requests"]["total"] == 0

    def test_results_carry_scheduler_metadata(self):
        circuit = QuantumCircuit(2).h(0).cx(0, 1)
        request = CompileRequest(circuit, strategy="full-grape", max_block_width=2)
        with _service() as service:
            single = service.compile(request).compiled
            (batched,) = service.compile_batch([request])
        assert single.method == "grape"
        assert single.metadata["service"] is True
        assert single.metadata["scheduler"]["total_blocks"] == 1
        assert batched.compiled.metadata["scheduler"]["reused_blocks"] == 1
        # Only a batch result carries the shared batch wall time; otherwise
        # a request and a batch of one report the same metadata keys.
        assert "batch_wall_time_s" not in single.metadata
        assert "batch_wall_time_s" in batched.compiled.metadata
        assert set(batched.compiled.metadata) - set(single.metadata) == {
            "batch_wall_time_s"
        }

    def test_reuse_never_reads_the_disk_library(self, tmp_path):
        """Blocks a service has compiled, or served from its library once,
        are served from the cache's memory tier: a repeat request reads no
        library file."""

        def library_gets(service):
            return service.stats()["cache"]["library"]["gets"]

        circuit = QuantumCircuit(4).h(0).cx(0, 1).h(2).cx(2, 3).rz(0.3, 3)
        for _ in range(2):  # a cold directory, then a warm one
            with _service(cache_dir=str(tmp_path)) as service:
                first = _compile(service, circuit)
                before = library_gets(service)
                repeat = _compile(service, circuit)
                assert library_gets(service) == before
            assert repeat.metadata["scheduler"]["reused_blocks"] == 2
            assert repeat.metadata["scheduler"]["dispatched_tasks"] == 0
            assert repeat.pulse_duration_ns == first.pulse_duration_ns


class TestLifecycle:
    def test_close_is_idempotent_and_blocks_further_compiles(self):
        service = _service()
        _compile(service, QuantumCircuit(2).h(0).cx(0, 1))
        service.close()
        service.close()
        with pytest.raises(PipelineError):
            _compile(service, QuantumCircuit(2).h(0).cx(0, 1))

    def test_context_manager_closes(self):
        with _service() as service:
            _compile(service, QuantumCircuit(2).h(0).cx(0, 1))
        with pytest.raises(PipelineError):
            _compile(service, QuantumCircuit(2).h(0).cx(0, 1))

    def test_default_device_grows_with_wider_circuits(self):
        """Without a configured device each circuit gets the default grid
        for its width, built once per qubit count."""
        narrow = QuantumCircuit(2).h(0).cx(0, 1)
        wide = QuantumCircuit(4).h(0).cx(0, 1).h(2).cx(2, 3)
        with CompilationService(
            config=ServiceConfig(executor="serial"),
            settings=SETTINGS,
            hyperparameters=HYPER,
            max_block_width=2,
        ) as service:
            assert _compile(service, narrow).pulse_duration_ns > 0
            narrow_device = service.device_for(narrow)
            assert narrow_device.num_qubits >= 2
            assert _compile(service, wide).pulse_duration_ns > 0
            assert service.device_for(wide).num_qubits >= 4
            assert service.device_for(narrow) is narrow_device

    def test_cache_dir_opens_a_disk_library(self, tmp_path):
        with _service(cache_dir=str(tmp_path)) as service:
            assert service.cache.library.directory == tmp_path
        with _service() as service:
            assert getattr(service.cache, "library", None) is None
