"""Pipeline extension: parallel block compilation + persistent pulse cache.

A :class:`repro.service.CompilationService` dispatches the independent
per-block GRAPE searches through its block executor and can persist every
pulse to disk.  This bench quantifies both claims on a multi-block
circuit, one fresh service per pass:

* ``serial`` vs ``auto`` executors over the same blocks — where the
  process may use two or more CPUs, ``auto`` runs a share of the block
  searches on its one forked search worker (per-block GRAPE is pure CPU);
  on a single-core CI runner ``auto`` runs inline and the comparison
  documents that honestly.
* a cold cache directory vs a warm one — the warm pass, a new service on
  the same directory, must do *zero* GRAPE iterations, which is the
  cross-process reuse the paper's precompilation story rests on.
"""

import os
import shutil
import tempfile
import time

import numpy as np
import pytest

import common
from repro.analysis import format_table
from repro.circuits import QuantumCircuit
from repro.pulse.device import GmonDevice
from repro.pulse.grape import GrapeHyperparameters, GrapeSettings
from repro.service import CompilationService, CompileRequest, ServiceConfig
from repro.transpile import line_topology

SETTINGS = GrapeSettings(dt_ns=0.5, target_fidelity=0.95)
HYPER = GrapeHyperparameters(learning_rate=0.05, decay_rate=0.002, max_iterations=200)
NUM_QUBITS = 8 if common.FULL_MODE else 6


def _multi_block_circuit(num_qubits: int) -> QuantumCircuit:
    """Disjoint 2-qubit entangling tiles — one GRAPE block per tile.

    Distinct rotation angles per tile keep the block unitaries unique, so
    the cache cannot collapse the workload and every block costs a real
    GRAPE search.
    """
    circuit = QuantumCircuit(num_qubits, name="parallel_tiles")
    for q in range(0, num_qubits - 1, 2):
        circuit.h(q)
        circuit.cx(q, q + 1)
        circuit.rz(0.3 + 0.2 * q, q + 1)
        circuit.cx(q, q + 1)
    return circuit


def _service(executor: str, cache_dir=None) -> CompilationService:
    """A fresh service: empty scheduler state, and an empty in-memory
    cache unless ``cache_dir`` names a pulse library."""
    return CompilationService(
        config=ServiceConfig(executor=executor, cache_dir=cache_dir),
        device=GmonDevice(line_topology(NUM_QUBITS)),
        settings=SETTINGS,
        hyperparameters=HYPER,
    )


def _compile(service, circuit):
    return service.compile(
        CompileRequest(circuit, strategy="full-grape", max_block_width=2)
    ).compiled


@pytest.mark.benchmark(group="pipeline-parallel")
def test_parallel_block_compilation(benchmark, capsys):
    circuit = _multi_block_circuit(NUM_QUBITS)

    # The auto service forks its worker in its constructor, outside the
    # timed runs.  A fresh in-memory cache per service: every block pays
    # full GRAPE.
    services = {name: _service(name) for name in ("serial", "auto")}
    forked = services["auto"].executor.describe()["search_workers"] > 0

    def run():
        rows = []
        results = {}
        for name, service in services.items():
            start = time.perf_counter()
            result = _compile(service, circuit)
            wall = time.perf_counter() - start
            results[name] = result
            rows.append(
                (
                    name,
                    result.blocks_compiled,
                    f"{wall:.2f}",
                    f"{result.pulse_duration_ns:.1f}",
                    result.metadata["executor"].get("search_workers", 0),
                )
            )
        return rows, results

    try:
        rows, results = benchmark.pedantic(run, iterations=1, rounds=1)
    finally:
        for service in services.values():
            service.close()
    # Executors must be interchangeable: same blocks, same pulse program.
    assert results["serial"].blocks_compiled == results["auto"].blocks_compiled
    assert results["serial"].blocks_compiled >= NUM_QUBITS // 2
    assert np.isclose(
        results["serial"].pulse_duration_ns, results["auto"].pulse_duration_ns
    )
    serial_wall = float(rows[0][2])
    auto_wall = float(rows[1][2])
    if forked:
        # With a second CPU the forked worker must beat serial on this
        # embarrassingly parallel workload (generous margin for CI noise).
        assert auto_wall < serial_wall * 0.9, (serial_wall, auto_wall)
    text = format_table(
        ("executor", "blocks", "wall (s)", "pulse (ns)", "search workers"),
        rows,
        title=f"Parallel block compilation, {NUM_QUBITS}-qubit tile circuit "
        f"({os.cpu_count()} cores)",
    )
    print(text)
    common.report("pipeline_parallel", text, capsys)


@pytest.mark.benchmark(group="pipeline-cache")
def test_persistent_cache_warm_restart(benchmark, capsys):
    circuit = _multi_block_circuit(NUM_QUBITS)
    cache_dir = tempfile.mkdtemp(prefix="repro-pulse-cache-")

    def run():
        rows = []
        # Cold pass: empty directory, every block is a miss that persists.
        start = time.perf_counter()
        with _service("serial", cache_dir) as service:
            cold = _compile(service, circuit)
        cold_wall = time.perf_counter() - start
        rows.append(("cold", f"{cold_wall:.2f}", cold.runtime_iterations, cold.cache_hits))
        # Warm pass: a *new* service on the same directory — exactly what
        # a second process sees — must be pure disk hits.
        start = time.perf_counter()
        with _service("serial", cache_dir) as service:
            warm = _compile(service, circuit)
        warm_wall = time.perf_counter() - start
        rows.append(("warm", f"{warm_wall:.2f}", warm.runtime_iterations, warm.cache_hits))
        return rows, cold, warm

    try:
        rows, cold, warm = benchmark.pedantic(run, iterations=1, rounds=1)
        assert cold.runtime_iterations > 0
        assert warm.runtime_iterations == 0, "warm restart must not re-run GRAPE"
        assert warm.cache_hits == warm.blocks_compiled
        assert np.isclose(cold.pulse_duration_ns, warm.pulse_duration_ns)
        text = format_table(
            ("pass", "wall (s)", "GRAPE iterations", "cache hits"),
            rows,
            title="Persistent pulse cache: cold vs warm restart",
        )
        print(text)
        common.report("pipeline_cache_warm_restart", text, capsys)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
