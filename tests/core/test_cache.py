"""Unit tests for the pulse cache."""

import pickle
import sys
import threading

import numpy as np
import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.dag import critical_path_ns
from repro.core.cache import (
    CacheEntry,
    PulseCache,
    control_context_key,
    unitary_fingerprint,
)
from repro.core.compiler import BlockPulseCompiler
from repro.core.slicing import flexible_slices
from repro.linalg.random import haar_random_unitary
from repro.pipeline.stages import BindStage, BlockingStage, PipelineContext
from repro.pulse.device import GmonDevice
from repro.pulse.grape.engine import GrapeHyperparameters, GrapeSettings
from repro.pulse.hamiltonian import build_control_set
from repro.pulse.schedule import PulseSchedule
from repro.qaoa import maxcut_problem, qaoa_circuit
from repro.service import CompilationService, CompileRequest, ServiceConfig
from repro.sim.unitary import circuit_unitary
from repro.transpile import transpile
from repro.transpile.topology import line_topology, nearly_square_grid
from repro.vqe import get_molecule


class TestFingerprint:
    def test_deterministic(self):
        u = haar_random_unitary(4, seed=0)
        assert unitary_fingerprint(u) == unitary_fingerprint(u.copy())

    def test_phase_invariant(self):
        u = haar_random_unitary(4, seed=1)
        assert unitary_fingerprint(u) == unitary_fingerprint(np.exp(0.3j) * u)

    def test_different_unitaries_differ(self):
        a = haar_random_unitary(4, seed=2)
        b = haar_random_unitary(4, seed=3)
        assert unitary_fingerprint(a) != unitary_fingerprint(b)

    def test_small_perturbation_changes_hash(self):
        u = np.eye(4, dtype=complex)
        v = u.copy()
        v[0, 0] = np.exp(0.01j)
        assert unitary_fingerprint(u) != unitary_fingerprint(v)


class TestContextKey:
    def test_translation_invariant(self):
        # Blocks on qubits (0,1) and (3,4) of a line have identical local
        # physics: their context keys must match so pulses are shared.
        device = GmonDevice(line_topology(6))
        a = build_control_set(device, [0, 1])
        b = build_control_set(device, [3, 4])
        assert control_context_key(a, 0.2, 0.999) == control_context_key(b, 0.2, 0.999)

    def test_dt_changes_key(self):
        device = GmonDevice(line_topology(2))
        cs = build_control_set(device, [0])
        assert control_context_key(cs, 0.2, 0.99) != control_context_key(cs, 0.1, 0.99)


class TestPulseCache:
    def _entry(self):
        sched = PulseSchedule(qubits=(0,), dt_ns=0.1, controls=np.zeros((1, 5)))
        return CacheEntry(sched, 0.5, 0.999, True, 100)

    def test_miss_then_hit(self):
        cache = PulseCache()
        device = GmonDevice(line_topology(2))
        cs = build_control_set(device, [0])
        key = cache.key(np.eye(2), cs, 0.2, 0.99)
        assert cache.get(key) is None
        cache.put(key, self._entry())
        assert cache.get(key) is not None
        assert cache.hits == 1 and cache.misses == 1

    def test_hit_rate(self):
        cache = PulseCache()
        assert cache.hit_rate == 0.0
        device = GmonDevice(line_topology(2))
        cs = build_control_set(device, [0])
        key = cache.key(np.eye(2), cs, 0.2, 0.99)
        cache.put(key, self._entry())
        cache.get(key)
        assert cache.hit_rate == 1.0

    def test_len(self):
        cache = PulseCache()
        device = GmonDevice(line_topology(2))
        cs = build_control_set(device, [0])
        cache.put(cache.key(np.eye(2), cs, 0.2, 0.99), self._entry())
        assert len(cache) == 1


# -- block identity: cheap task keys -------------------------------------------
SETTINGS = GrapeSettings(dt_ns=0.5, target_fidelity=0.95)
HYPER = GrapeHyperparameters(max_iterations=120)


def _routed(circuit: QuantumCircuit) -> QuantumCircuit:
    return transpile(circuit, topology=nearly_square_grid(circuit.num_qubits))


def _qaoa(num_nodes: int) -> QuantumCircuit:
    return _routed(qaoa_circuit(maxcut_problem("3regular", num_nodes, seed=0), p=1))


def _fixed_blocks(circuit: QuantumCircuit, stages: list, values=None) -> list:
    """The ``(subcircuit, device_qubits)`` of every Fixed block a pipeline
    with ``stages`` produces for ``circuit``."""
    context = PipelineContext(circuit, values=values)
    for stage in stages:
        stage.run(context)
    return [
        (task.subcircuit, task.device_qubits)
        for task in context.tasks
        if task.kind != "parametrized"
    ]


def _benchmark_blocks(workload: str) -> tuple:
    """``(circuit, blocks)`` of one of the repository benchmark's circuits."""
    if workload == "strict-qaoa6":
        circuit = _qaoa(6)
        return circuit, _fixed_blocks(circuit, [BlockingStage(2, isolate_parametrized=True)])
    if workload == "full-grape-qaoa4":
        circuit = _qaoa(4)
        return circuit, _fixed_blocks(circuit, [BindStage(), BlockingStage(2)], [0.37, -1.21])
    # Two-qubit H2 at width 2 puts a parameter in every slice's block, so
    # the flexible slicing of the ansatz has no Fixed block; the same
    # slicing of a bound ansatz (all Fixed) supplies blocks to key.
    circuit = _routed(get_molecule("H2").ansatz())
    slicing = BlockingStage(2, slicer=flexible_slices)
    values = [0.21] * len(circuit.parameters)
    return circuit, (
        _fixed_blocks(circuit, [slicing])
        + _fixed_blocks(circuit, [BindStage(), slicing], values)
    )


def _reference_key(cache, device, subcircuit, device_qubits):
    """The key formula compile_block stores under (and on-disk entries
    were written with)."""
    if subcircuit.is_parameterized():
        return None
    if len(subcircuit) == 0 or critical_path_ns(subcircuit) <= 0:
        return None
    return cache.key(
        circuit_unitary(subcircuit),
        build_control_set(device, device_qubits),
        SETTINGS.resolved_dt(),
        SETTINGS.resolved_target(),
    )


class TestTaskKeyCompatibility:
    """task_key is bit-for-bit the key existing libraries were written with."""

    @pytest.mark.parametrize("workload", ["strict-qaoa6", "full-grape-qaoa4", "flexible-h2"])
    def test_benchmark_blocks_keep_their_keys(self, workload):
        circuit, blocks = _benchmark_blocks(workload)
        device = GmonDevice.grid_for(circuit.num_qubits)
        compiler = BlockPulseCompiler(device, SETTINGS, HYPER, PulseCache())
        reference = PulseCache()
        keyed = 0
        for subcircuit, device_qubits in blocks:
            expected = _reference_key(reference, device, subcircuit, device_qubits)
            assert compiler.task_key(subcircuit, device_qubits) == expected
            # A second, memoized call returns the same key.
            assert compiler.task_key(subcircuit, device_qubits) == expected
            keyed += expected is not None
        assert keyed > 0
        assert compiler.cache.key_memo_hits >= keyed

    @pytest.mark.parametrize(
        "qubits", [(0,), (3,), (0, 1), (1, 0), (2, 3), (0, 2), (0, 3), (1, 2, 4)]
    )
    def test_layout_context_equals_control_set_context(self, qubits):
        # (0, 2) and (0, 3) are not adjacent on the 2x3 grid, so their
        # layouts carry bridging couplers.
        device = GmonDevice.grid_for(6)
        assert control_context_key(
            device.channel_layout(qubits), 0.5, 0.95
        ) == control_context_key(build_control_set(device, qubits), 0.5, 0.95)

    def test_channels_for_is_memoized_but_returns_fresh_lists(self):
        device = GmonDevice.grid_for(6)
        first = device.channels_for((1, 0))
        first.append("junk")
        assert device.channels_for((0, 1)) == first[:-1]
        assert device.channel_layout((0, 1)) is device.channel_layout([1, 0])

    def test_device_pickles_without_its_memo(self):
        device = GmonDevice.grid_for(6)
        layout = device.channel_layout((0, 1))
        clone = pickle.loads(pickle.dumps(device))
        assert clone._layouts == {}
        assert clone.channel_layout((0, 1)) == layout


def _rz_block(theta: float) -> QuantumCircuit:
    return QuantumCircuit(2).cx(0, 1).rz(theta, 1).cx(0, 1)


class TestFingerprintMemo:
    def test_memo_matches_recomputation(self):
        cache = PulseCache()
        block = _rz_block(0.3)
        expected = unitary_fingerprint(circuit_unitary(block))
        assert cache.block_fingerprint(block) == expected
        assert cache.block_fingerprint(_rz_block(0.3)) == expected
        assert (cache.key_memo_misses, cache.key_memo_hits) == (1, 1)

    def test_counters_in_stats(self):
        cache = PulseCache()
        stats = cache.stats()
        assert (stats["key_memo_hits"], stats["key_memo_misses"], stats["key_memo_size"]) == (0, 0, 0)
        for theta in (0.1, 0.2, 0.1, 0.1):
            cache.block_fingerprint(_rz_block(theta))
        stats = cache.stats()
        assert stats["key_memo_hits"] == 2
        assert stats["key_memo_misses"] == 2
        assert stats["key_memo_size"] == 2

    def test_counters_are_per_cache(self):
        a, b = PulseCache(), PulseCache()
        a.block_fingerprint(_rz_block(0.1))
        a.block_fingerprint(_rz_block(0.1))
        assert b.stats()["key_memo_hits"] == b.stats()["key_memo_misses"] == 0
        assert b.stats()["key_memo_size"] == 0

    def test_lru_bound_holds(self):
        cache = PulseCache()
        compiler = BlockPulseCompiler(GmonDevice(line_topology(2)), SETTINGS, HYPER, cache)
        thetas = [1e-4 * k for k in range(1, cache.key_memo_max + 11)]
        for theta in thetas:
            assert compiler.task_key(_rz_block(theta), (0, 1)) is not None
        stats = cache.stats()
        assert stats["key_memo_size"] == cache.key_memo_max
        assert stats["key_memo_misses"] == len(thetas)
        # The most recent blocks are still memoized; the oldest were evicted.
        compiler.task_key(_rz_block(thetas[-1]), (0, 1))
        assert cache.key_memo_hits == 1
        compiler.task_key(_rz_block(thetas[0]), (0, 1))
        assert cache.key_memo_misses == len(thetas) + 1
        assert cache.stats()["key_memo_size"] == cache.key_memo_max

    def test_concurrent_fingerprints_lose_no_update(self):
        cache = PulseCache()
        blocks = [_rz_block(0.01 * k) for k in range(40)]
        expected = [unitary_fingerprint(circuit_unitary(b)) for b in blocks]
        threads_n, rounds = 8, 5
        results = [None] * threads_n

        def worker(index):
            results[index] = [
                cache.block_fingerprint(block) for _ in range(rounds) for block in blocks
            ]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(threads_n)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(found == expected * rounds for found in results)
        stats = cache.stats()
        assert stats["key_memo_hits"] + stats["key_memo_misses"] == threads_n * rounds * len(blocks)
        assert stats["key_memo_size"] == len(blocks)

    def test_memo_is_keyed_on_exact_angles(self):
        cache = PulseCache()
        theta = 0.3
        nudged = np.nextafter(theta, 1.0)
        cache.block_fingerprint(_rz_block(theta))
        cache.block_fingerprint(_rz_block(nudged))
        assert cache.key_memo_misses == 2

    def test_pickle_round_trip(self):
        cache = PulseCache()
        device = GmonDevice(line_topology(2))
        block = _rz_block(0.4)
        fingerprint = cache.block_fingerprint(block)
        key = cache.key(fingerprint, device.channel_layout((0, 1)), 0.5, 0.95)
        sched = PulseSchedule(qubits=(0, 1), dt_ns=0.5, controls=np.zeros((5, 4)))
        cache.put(key, CacheEntry(sched, 2.0, 0.99, True, 10))
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.get(key) is not None
        # Whether or not the memo travelled, it answers exactly as before
        # and stays within its bound.
        assert clone.block_fingerprint(block) == fingerprint
        assert clone.stats()["key_memo_size"] <= clone.key_memo_max


def _strict_request(circuit, values, use_cache=True):
    return CompileRequest(
        circuit,
        values,
        strategy="strict-partial",
        settings=SETTINGS,
        hyperparameters=HYPER,
        max_block_width=2,
        use_cache=use_cache,
    )


class TestServiceMemoScope:
    """The memo lives in each service's PulseCache and nowhere else."""

    def test_services_share_no_memo_entries(self):
        circuit = _qaoa(4)
        with CompilationService(ServiceConfig(warm_start=False)) as first, CompilationService(
            ServiceConfig(warm_start=False)
        ) as second:
            first.compile(_strict_request(circuit, [0.3, 1.1]))
            warm = first.cache.stats()
            assert warm["key_memo_size"] > 0
            assert second.cache.stats()["key_memo_size"] == 0
            second.compile(_strict_request(circuit, [0.3, 1.1]))
            # The second service re-fingerprints every block itself.
            assert second.cache.stats()["key_memo_misses"] == warm["key_memo_misses"]
            assert first.cache.stats() == warm

    def test_uncached_request_refingerprints_every_block(self):
        circuit = _qaoa(4)
        with CompilationService(ServiceConfig(warm_start=False)) as service:
            cold = service.compile(_strict_request(circuit, [0.3, 1.1]))
            distinct = cold.precompile_report.cache_stats["key_memo_misses"]
            assert distinct > 0
            before = service.cache.stats()
            for values in ([0.3, 1.1], [0.5, 0.2]):
                result = service.compile(_strict_request(circuit, values, use_cache=False))
                stats = result.precompile_report.cache_stats
                assert stats["key_memo_misses"] == distinct
            assert service.cache.stats()["key_memo_misses"] == before["key_memo_misses"]
            assert service.cache.stats()["key_memo_hits"] == before["key_memo_hits"]

    def test_concurrent_submits_key_like_serial(self):
        circuit = _qaoa(4)
        thetas = [[0.3 + 0.05 * k, 1.1 - 0.03 * k] for k in range(6)]

        with CompilationService(ServiceConfig(warm_start=False, submit_workers=1)) as serial:
            serial_durations = [
                serial.compile(_strict_request(circuit, values)).pulse_duration_ns
                for values in thetas
            ]
            serial_keys = set(serial.cache._entries)
            serial_memo = dict(serial.cache._fingerprints)

        with CompilationService(ServiceConfig(warm_start=False, submit_workers=2)) as service:
            durations = [None] * len(thetas)

            def client(offset):
                for i in range(offset, len(thetas), 2):
                    future = service.submit(_strict_request(circuit, thetas[i]))
                    durations[i] = future.result().pulse_duration_ns

            threads = [threading.Thread(target=client, args=(k,)) for k in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert set(service.cache._entries) == serial_keys
            assert dict(service.cache._fingerprints) == serial_memo
            assert durations == serial_durations
