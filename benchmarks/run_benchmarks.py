"""Perf harness: run the perf benches and write ``BENCH_*.json`` artifacts.

Unlike the table/figure benches (which reproduce the paper and print text
tables), this runner exists so that *speedup claims about this repository
itself* are machine-checkable and accumulate over time:

* ``grape_kernel`` — per-iteration cost of one GRAPE ``cost_and_gradient``
  call on representative blocks, including the paper-scale 3-qubit qutrit
  block (dim 27).  The frozen pre-rewrite kernel
  (``benchmarks/grape_reference.py``) is the ``before`` reference; the
  live :class:`repro.pulse.grape.cost.GrapeCost` is the ``after``.  Both
  are checked to agree to ≤1e-10 before timing.  A record-only dim-4,
  6-slice case — the size the repository benchmark's workloads run —
  also times the frozen pre-plan kernel, checked bit-identical first.
* ``grape_batch`` — the cross-block batched GRAPE kernel: N same-shape
  blocks optimized as one stacked tensor vs the same N blocks run through
  the per-block kernel serially, checked ≤1e-10 identical before timing,
  plus a scan-blocking sweep of the blocked prefix-product scan.  The CI
  gate: batched is never slower than per-block; the full run must show
  the ≥1.3× headline at 8 blocks.
* ``pipeline`` — wall time of multi-block compilation under the ``serial``
  executor vs the ``auto`` executor (the service default).  The CI gate is
  host-independent: ``auto`` must never be slower than ``serial`` beyond a
  noise margin, whatever mode it picked for this host.
* ``cache`` — the persistent pulse library: cold compile vs warm-restart
  compile against the same sharded directory (the warm run must do zero
  GRAPE iterations), legacy flat-directory migration (every entry
  preserved bit-identically), sharded lookup throughput at a synthetic
  entry population, and an LRU ``gc`` pass down to a byte budget.
* ``session`` — a long-lived :class:`repro.pipeline.VariationalSession`
  compiling one parametrized ansatz at a stream of random θ draws: the
  cold iteration 0 pays for every block, steady-state iteration k pays
  only for the θ-dependent block (cross-call dedup must make it faster).
* ``service_concurrency`` — the service front door under variational and
  concurrent load: a hot θ-loop on one ansatz must build its
  content-addressed plan once and skip the blocking pass on every later
  iteration, and N disjoint ``submit()`` requests running concurrently
  must never be slower than serial ``compile()`` (the 1-CPU-safe gate CI
  enforces), bit-identical results both ways.
* ``service_load`` — the load generator for the multi-process fleet:
  concurrent clients pushing disjoint requests through one service with
  the in-process dispatcher vs the ``queue`` dispatcher backed by 1 and 2
  worker processes, reporting per-request latency (p50/p99) and
  throughput, results checked identical across dispatchers.  The CI gate:
  the 2-worker fleet is never slower than single-process beyond a noise
  margin; the committed full run must show fleet throughput ≥ 1.0×
  single-process.
* ``warm_start`` — warm-started GRAPE: near-miss variants of a cached
  block compiled cold vs neighbor-seeded (approximate-match retrieval
  from the pulse cache) vs KAK-seeded (analytic fallback, empty cache).
  The CI gate: neighbor seeding never costs iterations and never
  lengthens the pulses; the committed full run must show the ≥30%
  iteration-reduction headline.
* ``time_search`` — the minimum-time binary search on a block whose
  initial feasibility bound (and its half) fail, so the doubling phase
  triggers: lazy sequential doublings vs ``probe_executor="auto"`` (which
  declines speculation on small hosts) vs forced ``"thread"`` speculation,
  wall time and total-iteration cost side by side.  The CI gate: ``auto``
  is never slower than sequential beyond a noise margin.

The compile-level benches (``pipeline``, ``cache``) run through
:class:`repro.service.CompilationService` — the supported front door — so
the numbers track what real callers see.

Every run also *appends* one line to ``results/BENCH_trend.jsonl`` —
commit, timestamp, and each bench's ``derived`` metrics — so perf
trajectories accumulate across commits instead of each run overwriting
the last snapshot.

Usage::

    PYTHONPATH=src python benchmarks/run_benchmarks.py --quick
    PYTHONPATH=src python benchmarks/run_benchmarks.py --only grape_kernel

Each bench writes ``BENCH_<name>.json`` under ``--output-dir`` (default
``benchmarks/results/``) with ``entries`` (one dict per measured variant)
and ``derived`` (speedups and invariant checks), so CI can diff perf
trajectories across PRs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

# The module doubles as a script (`python benchmarks/run_benchmarks.py`) and
# an importlib-loaded module (the smoke test); make the sibling frozen
# reference importable either way.
sys.path.insert(0, str(Path(__file__).resolve().parent))
from grape_reference import (  # noqa: E402
    PrePlanGrapeCost,
    kernel_fixture,
    reference_cost_and_gradient,
)

from repro.circuits.circuit import QuantumCircuit
from repro.core import PulseCache
from repro.perf import get_perf_registry
from repro.pulse.device import GmonDevice
from repro.pulse.grape.engine import GrapeHyperparameters, GrapeSettings
from repro.service import CompilationService, CompileRequest, ServiceConfig
from repro.transpile.topology import line_topology

DEFAULT_OUTPUT_DIR = Path(__file__).parent / "results"

BENCH_SCHEMA_VERSION = 1


def _time_per_call_ms(fn, repeats: int, inner: int) -> float:
    """Best over ``repeats`` of the mean wall time of ``inner`` calls.

    Best-of is the standard noise-robust statistic for microbenchmarks:
    scheduler interference only ever makes a sample slower.
    """
    fn()  # warm caches / contraction plans outside the timed region
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(inner):
            fn()
        samples.append((time.perf_counter() - start) / inner * 1e3)
    return min(samples)


def _time_wall(fn) -> float:
    """One wall-clock sample of ``fn`` in seconds (callers take a best-of)."""
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def bench_grape_kernel(quick: bool) -> dict:
    """Per-iteration kernel timing, pre-rewrite vs live, on fixed seeds.

    The three long-pulse cases time the vectorized rewrite against the
    seed kernel; ``headline_speedup`` (dim 27) is the gated number.  The
    record-only ``2q-qubit-dim4-6steps`` case is the size the benchmark
    workloads actually run (a 2-qubit block, a handful of slices), where
    per-call overhead rather than arithmetic dominates; it also times the
    frozen pre-plan kernel (``-pre-plan``), which the live kernel matches
    bit for bit, so the per-length plans' overhead cut shows directly.
    """
    n_steps = 48 if quick else 120
    repeats = 5 if quick else 7
    inner = 3 if quick else 5
    short_inner = 100 if quick else 300
    # (label, qubits, levels, slices, calls per sample, time the pre-plan kernel)
    cases = [
        ("2q-qubit-dim4", 2, 2, n_steps, inner, False),
        ("2q-qutrit-dim9", 2, 3, n_steps, inner, False),
        ("3q-qutrit-dim27", 3, 3, n_steps, inner, False),
        ("2q-qubit-dim4-6steps", 2, 2, 6, short_inner, True),
    ]
    entries = []
    derived: dict = {}
    for label, n_qubits, levels, case_steps, case_inner, with_pre_plan in cases:
        cost, controls = kernel_fixture(n_qubits, levels, case_steps)
        control_set = cost.control_set

        before_out = reference_cost_and_gradient(cost, controls)
        after_out = cost.cost_and_gradient(controls)
        deviation = max(
            abs(before_out[0] - after_out[0]),
            float(np.abs(before_out[1] - after_out[1]).max()),
            abs(before_out[2] - after_out[2]),
        )
        if deviation > 1e-10:
            raise AssertionError(
                f"kernel rewrite deviates from the pre-PR reference on "
                f"{label}: {deviation:.3e}"
            )

        before_ms = _time_per_call_ms(
            lambda: reference_cost_and_gradient(cost, controls), repeats, case_inner
        )
        after_ms = _time_per_call_ms(
            lambda: cost.cost_and_gradient(controls), repeats, case_inner
        )
        shared = {
            "case": label,
            "dim": control_set.dim,
            "n_controls": control_set.num_controls,
            "n_steps": case_steps,
            "max_abs_deviation": deviation,
        }
        entries.append(
            {"name": f"{label}-before", "per_iteration_ms": before_ms, **shared}
        )
        if with_pre_plan:
            pre_plan = PrePlanGrapeCost(cost)
            if any(
                np.asarray(a).tobytes() != np.asarray(b).tobytes()
                for a, b in zip(pre_plan.cost_and_gradient(controls), after_out)
            ):
                raise AssertionError(
                    f"live kernel is not bit-identical to the pre-plan kernel "
                    f"on {label}"
                )
            pre_plan_ms = _time_per_call_ms(
                lambda: pre_plan.cost_and_gradient(controls), repeats, case_inner
            )
            entries.append(
                {"name": f"{label}-pre-plan", "per_iteration_ms": pre_plan_ms, **shared}
            )
            derived[f"plan_speedup_{label}"] = round(pre_plan_ms / after_ms, 3)
        entries.append(
            {"name": f"{label}-after", "per_iteration_ms": after_ms, **shared}
        )
        derived[f"speedup_{label}"] = round(before_ms / after_ms, 3)
        print(
            f"  grape_kernel {label}: before {before_ms:.3f} ms, "
            f"after {after_ms:.3f} ms, speedup {before_ms / after_ms:.2f}x "
            f"(max deviation {deviation:.2e})"
        )
    derived["headline_speedup"] = derived["speedup_3q-qutrit-dim27"]
    return {"entries": entries, "derived": derived}


def _tile_circuit(num_qubits: int) -> QuantumCircuit:
    """Disjoint 2-qubit entangling tiles — one independent GRAPE block each."""
    circuit = QuantumCircuit(num_qubits, name="perf_tiles")
    for q in range(0, num_qubits - 1, 2):
        circuit.h(q)
        circuit.cx(q, q + 1)
        circuit.rz(0.3 + 0.2 * q, q + 1)
        circuit.cx(q, q + 1)
    return circuit


def bench_pipeline(quick: bool) -> dict:
    """Multi-block compile wall time: serial vs the ``auto`` executor.

    ``auto`` is the service default, so this bench gates what every caller
    gets out of the box.  The gate is host-independent by design: whatever
    mode ``auto`` picked for this machine (inline + batched GRAPE on small
    hosts, the persistent thread pool on large ones), it must never be
    slower than forcing ``serial`` beyond a noise margin.
    """
    num_qubits = 6 if quick else 8
    settings = GrapeSettings(dt_ns=0.5, target_fidelity=0.95)
    hyper = GrapeHyperparameters(
        learning_rate=0.05,
        decay_rate=0.002,
        max_iterations=120 if quick else 250,
    )
    circuit = _tile_circuit(num_qubits)
    entries = []
    results = {}
    for name in ("serial", "auto"):
        # One service per variant: a fresh in-memory cache and scheduler
        # state, so every block pays full GRAPE in both runs.
        service = CompilationService(
            config=ServiceConfig(executor=name),
            device=GmonDevice(line_topology(num_qubits)),
            settings=settings,
            hyperparameters=hyper,
        )
        start = time.perf_counter()
        result = service.compile(
            CompileRequest(
                circuit=circuit, strategy="full-grape", max_block_width=2
            )
        ).compiled
        wall = time.perf_counter() - start
        results[name] = result
        entry = {
            "name": name,
            "wall_s": round(wall, 4),
            "blocks": result.blocks_compiled,
            "pulse_duration_ns": round(result.pulse_duration_ns, 3),
            "batched_blocks": result.metadata["scheduler"].get(
                "batched_blocks", 0
            ),
            **result.metadata["executor"],
        }
        service.close()
        entries.append(entry)
        print(
            f"  pipeline {name}: {wall:.2f} s over {result.blocks_compiled} "
            f"blocks (mode {entry.get('mode', name)})"
        )
    serial_wall = entries[0]["wall_s"]
    auto = entries[1]
    derived = {
        "speedup_auto": round(serial_wall / auto["wall_s"], 3),
        "auto_mode": auto.get("mode"),
        "auto_batched_blocks": auto["batched_blocks"],
        "durations_match": bool(
            np.isclose(
                results["serial"].pulse_duration_ns,
                results["auto"].pulse_duration_ns,
            )
        ),
    }
    if not derived["durations_match"]:
        raise AssertionError("executors disagreed on the compiled program")
    # The CI "never slower" gate: auto must not lose to serial on any host
    # beyond scheduler noise — the whole point of auto-selection.
    if auto["wall_s"] > serial_wall * 1.15:
        raise AssertionError(
            f"auto executor was slower than serial beyond the noise margin: "
            f"{auto['wall_s']:.2f} s vs {serial_wall:.2f} s"
        )
    return {"entries": entries, "derived": derived}


def bench_cache(quick: bool) -> dict:
    """Persistent pulse-library behavior: warm restarts, migration, lookups."""
    import pickle
    import shutil
    import tempfile

    from repro.core.cache import CACHE_SCHEMA_VERSION
    from repro.library import PulseLibrary

    num_qubits = 6
    settings = GrapeSettings(dt_ns=0.5, target_fidelity=0.95)
    hyper = GrapeHyperparameters(
        learning_rate=0.05,
        decay_rate=0.002,
        max_iterations=100 if quick else 200,
    )
    circuit = _tile_circuit(num_qubits)
    entries = []
    derived: dict = {}
    root = Path(tempfile.mkdtemp(prefix="bench_cache_"))
    try:
        # -- cold vs warm restart against one sharded directory ------------
        cache_dir = root / "library"
        runs = {}
        for name in ("cold", "warm"):
            # A fresh service per run models a process restart: scheduler
            # state resets, so the warm run must be served by the library.
            service = CompilationService(
                config=ServiceConfig(cache_dir=str(cache_dir)),
                device=GmonDevice(line_topology(num_qubits)),
                settings=settings,
                hyperparameters=hyper,
            )
            start = time.perf_counter()
            result = service.compile(
                CompileRequest(
                    circuit=circuit, strategy="full-grape", max_block_width=2
                )
            ).compiled
            wall = time.perf_counter() - start
            stats = service.stats()["cache"]
            service.close()
            runs[name] = (wall, result, stats)
            entries.append(
                {
                    "name": f"{name}_compile",
                    "wall_s": round(wall, 4),
                    "grape_iterations": result.runtime_iterations,
                    "disk_hits": stats["disk_hits"],
                    "misses": stats["misses"],
                    "persisted_entries": stats["persisted_entries"],
                }
            )
            print(
                f"  cache {name}: {wall:.2f} s, "
                f"{result.runtime_iterations} GRAPE iterations, "
                f"{stats['disk_hits']} disk hits"
            )
        derived["warm_restart_speedup"] = round(runs["cold"][0] / runs["warm"][0], 3)
        derived["warm_grape_iterations"] = runs["warm"][1].runtime_iterations
        derived["warm_disk_hits"] = runs["warm"][2]["disk_hits"]
        if runs["warm"][1].runtime_iterations != 0:
            raise AssertionError(
                "warm restart must serve every block from the sharded library"
            )
        if runs["warm"][2]["disk_hits"] < 1:
            raise AssertionError("warm restart recorded no disk hits")

        # -- legacy flat layout: migration + round-trip --------------------
        n_synthetic = 64 if quick else 512
        payloads = {}
        rng = np.random.default_rng(7)
        for i in range(n_synthetic):
            name = f"{rng.bytes(20).hex()}-{i:016x}.pulse"
            payloads[name] = pickle.dumps(
                {"schema_version": CACHE_SCHEMA_VERSION, "blob": rng.bytes(2048)}
            )
        flat_dir = root / "flat"
        flat_dir.mkdir()
        for name, blob in payloads.items():
            (flat_dir / name).write_bytes(blob)
        start = time.perf_counter()
        library = PulseLibrary(flat_dir, shards=256)
        migration_wall = time.perf_counter() - start
        preserved = all(library.get(name) == blob for name, blob in payloads.items())
        entries.append(
            {
                "name": "flat_migration",
                "wall_s": round(migration_wall, 4),
                "entries": n_synthetic,
                "migrated": library.migrated_entries,
                "preserved_bit_identically": preserved,
            }
        )
        derived["migration_preserved"] = preserved
        if not preserved or library.migrated_entries != n_synthetic:
            raise AssertionError("flat-directory migration lost or altered entries")
        print(
            f"  cache migration: {n_synthetic} flat entries -> sharded in "
            f"{migration_wall:.3f} s (bit-identical: {preserved})"
        )

        # -- lookup throughput on the sharded layout -----------------------
        names = list(payloads)
        lookups = names * (3 if quick else 10)
        start = time.perf_counter()
        for name in lookups:
            if library.get(name) is None:
                raise AssertionError(f"sharded lookup lost entry {name}")
        lookup_wall = time.perf_counter() - start
        entries.append(
            {
                "name": "sharded_lookup",
                "wall_s": round(lookup_wall, 4),
                "lookups": len(lookups),
                "per_lookup_us": round(lookup_wall / len(lookups) * 1e6, 2),
                "nonempty_shards": library.sweep()["nonempty_shards"],
            }
        )

        # -- LRU gc down to half the population ----------------------------
        total = library.sweep()["total_bytes"]
        budget_mb = total / 2 / (1024 * 1024)
        start = time.perf_counter()
        report = library.gc(budget_mb)
        gc_wall = time.perf_counter() - start
        entries.append(
            {
                "name": "gc",
                "wall_s": round(gc_wall, 4),
                "evicted": report.evicted,
                "bytes_freed": report.bytes_freed,
                "entries_after": report.entries_after,
            }
        )
        derived["gc_evicted"] = report.evicted
        if report.evicted == 0 or report.bytes_after > budget_mb * 1024 * 1024:
            raise AssertionError("gc failed to enforce the size budget")
        print(
            f"  cache gc: evicted {report.evicted} entries "
            f"({report.bytes_freed / 1024:.0f} KiB) in {gc_wall:.3f} s"
        )
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return {"entries": entries, "derived": derived}


def bench_session(quick: bool) -> dict:
    """Long-lived session: cold iteration 0 vs steady-state iteration k."""
    from repro.circuits.parameters import Parameter
    from repro.pipeline.session import VariationalSession

    settings = GrapeSettings(dt_ns=0.5, target_fidelity=0.95)
    hyper = GrapeHyperparameters(
        learning_rate=0.05,
        decay_rate=0.002,
        max_iterations=100 if quick else 200,
    )
    # Two distinct θ-independent entangler tiles plus one θ-dependent tile:
    # the variational shape — iteration k ≥ 1 recompiles only the θ tile.
    circuit = QuantumCircuit(6, name="session_ansatz")
    for q, angle in ((0, 0.3), (2, 1.1)):
        circuit.h(q)
        circuit.cx(q, q + 1)
        circuit.rz(angle, q + 1)
        circuit.cx(q, q + 1)
    circuit.rz(Parameter("theta"), 4)
    circuit.cx(4, 5)

    iterations = 4 if quick else 8
    rng = np.random.default_rng(3)
    entries = []
    walls = []
    session = VariationalSession(
        device=GmonDevice(line_topology(6)),
        settings=settings,
        hyperparameters=hyper,
        max_block_width=2,
        cache=PulseCache(),
    )
    try:
        for k in range(iterations):
            values = [float(rng.uniform(-np.pi / 2, np.pi / 2))]
            start = time.perf_counter()
            result = session.compile_parametrized(circuit, values)
            wall = time.perf_counter() - start
            walls.append(wall)
            scheduler = result.metadata["scheduler"]
            entries.append(
                {
                    "name": f"iteration_{k}",
                    "wall_s": round(wall, 4),
                    "dispatched_tasks": scheduler["dispatched_tasks"],
                    "reused_blocks": scheduler["reused_blocks"],
                    "grape_iterations": result.runtime_iterations,
                }
            )
            print(
                f"  session iteration {k}: {wall:.3f} s, "
                f"dispatched {scheduler['dispatched_tasks']}, "
                f"reused {scheduler['reused_blocks']}"
            )
    finally:
        session.close()
    cold = walls[0]
    steady = min(walls[1:])
    stats = session.stats()
    derived = {
        "cold_wall_s": round(cold, 4),
        "steady_wall_s": round(steady, 4),
        "steady_state_speedup": round(cold / steady, 3),
        "dispatched_blocks_total": stats["dispatched_blocks"],
        "reused_blocks_total": stats["reused_blocks"],
        "known_blocks": stats["known_blocks"],
    }
    if stats["reused_blocks"] == 0:
        raise AssertionError("the session recorded no cross-call block reuse")
    if steady >= cold:
        raise AssertionError(
            "steady-state session iteration must beat the cold iteration "
            f"(cold {cold:.3f} s, steady {steady:.3f} s)"
        )
    return {"entries": entries, "derived": derived}


def bench_service_concurrency(quick: bool) -> dict:
    """Plan cache + unlocked strategy execution through the service.

    Two measurements:

    * ``hot loop`` — one ansatz compiled at a stream of θ draws through one
      :class:`~repro.service.CompilationService`: iteration 0 pays for the
      blocking pass and every GRAPE block; iterations ≥ 1 must replay the
      content-addressed plan (``blocking_passes_skipped`` increments) and
      serve θ-independent blocks from scheduler state.
    * ``throughput`` — N *disjoint* requests (no shared blocks, so no
      single-flight coordination) submitted concurrently vs compiled
      serially.  The in-bench assertion is the CI satellite: concurrent
      must never be slower than serial beyond a noise margin — safe on a
      1-CPU runner, where overlap degenerates to interleaving.
    """
    from repro.circuits.parameters import Parameter

    num_qubits = 6
    settings = GrapeSettings(dt_ns=0.5, target_fidelity=0.95)
    hyper = GrapeHyperparameters(
        learning_rate=0.05,
        decay_rate=0.002,
        max_iterations=100 if quick else 200,
    )
    entries = []
    derived: dict = {}

    # -- hot variational loop: plan replay + cross-call dedup --------------
    ansatz = QuantumCircuit(num_qubits, name="service_ansatz")
    for q, angle in ((0, 0.3), (2, 1.1)):
        ansatz.h(q)
        ansatz.cx(q, q + 1)
        ansatz.rz(angle, q + 1)
        ansatz.cx(q, q + 1)
    ansatz.rz(Parameter("theta"), 4)
    ansatz.cx(4, 5)

    iterations = 3 if quick else 6
    rng = np.random.default_rng(11)
    walls = []
    service = CompilationService(
        device=GmonDevice(line_topology(num_qubits)),
        settings=settings,
        hyperparameters=hyper,
    )
    try:
        for k in range(iterations):
            values = [float(rng.uniform(-np.pi / 2, np.pi / 2))]
            start = time.perf_counter()
            result = service.compile(
                CompileRequest(
                    circuit=ansatz,
                    values=values,
                    strategy="full-grape",
                    max_block_width=2,
                )
            ).compiled
            wall = time.perf_counter() - start
            walls.append(wall)
            entries.append(
                {
                    "name": f"hot_iteration_{k}",
                    "wall_s": round(wall, 4),
                    "plan_cache": result.metadata["plan_cache"],
                    "blocking_stage_s": round(
                        result.metadata["stage_timings"].get("block", 0.0), 6
                    ),
                }
            )
            print(
                f"  service_concurrency hot iteration {k}: {wall:.3f} s "
                f"(plan {result.metadata['plan_cache']})"
            )
        plan_stats = service.stats()["plan_cache"]
    finally:
        service.close()
    derived.update(
        {
            "hot_cold_wall_s": round(walls[0], 4),
            "hot_steady_wall_s": round(min(walls[1:]), 4),
            "hot_loop_speedup": round(walls[0] / min(walls[1:]), 3),
            "plan_hits": plan_stats["plan_hits"],
            "plan_misses": plan_stats["plan_misses"],
            "blocking_passes_skipped": plan_stats["blocking_passes_skipped"],
        }
    )
    if plan_stats["plan_misses"] != 1:
        raise AssertionError(
            f"one ansatz must build exactly one plan, got "
            f"{plan_stats['plan_misses']} misses"
        )
    if plan_stats["blocking_passes_skipped"] != iterations - 1:
        raise AssertionError(
            "every hot iteration after the first must skip the blocking "
            f"pass: skipped {plan_stats['blocking_passes_skipped']} of "
            f"{iterations - 1}"
        )

    # -- concurrent submit() throughput vs serial compile() ----------------
    def _disjoint_circuit(offset: float) -> QuantumCircuit:
        circuit = QuantumCircuit(num_qubits, name=f"disjoint_{offset}")
        for q in range(0, num_qubits - 1, 2):
            circuit.h(q)
            circuit.cx(q, q + 1)
            circuit.rz(0.3 + 0.2 * q + offset, q + 1)
            circuit.cx(q, q + 1)
        return circuit

    n_requests = 4
    circuits = [_disjoint_circuit(0.05 * (i + 1)) for i in range(n_requests)]

    def _requests():
        return [
            CompileRequest(
                circuit=circuit, strategy="full-grape", max_block_width=2
            )
            for circuit in circuits
        ]

    def _service():
        return CompilationService(
            device=GmonDevice(line_topology(num_qubits)),
            settings=settings,
            hyperparameters=hyper,
        )

    with _service() as serial_service:
        start = time.perf_counter()
        serial_results = [
            serial_service.compile(request) for request in _requests()
        ]
        serial_wall = time.perf_counter() - start

    with _service() as concurrent_service:
        start = time.perf_counter()
        futures = [
            concurrent_service.submit(request) for request in _requests()
        ]
        concurrent_results = [future.result(timeout=600) for future in futures]
        concurrent_wall = time.perf_counter() - start
        submit_workers = concurrent_service.config.submit_workers

    durations_match = all(
        np.isclose(s.program.duration_ns, c.program.duration_ns)
        for s, c in zip(serial_results, concurrent_results)
    )
    entries.append(
        {
            "name": "serial_compile",
            "wall_s": round(serial_wall, 4),
            "requests": n_requests,
        }
    )
    entries.append(
        {
            "name": "concurrent_submit",
            "wall_s": round(concurrent_wall, 4),
            "requests": n_requests,
            "submit_workers": submit_workers,
        }
    )
    derived.update(
        {
            "serial_wall_s": round(serial_wall, 4),
            "concurrent_wall_s": round(concurrent_wall, 4),
            "throughput_speedup": round(serial_wall / concurrent_wall, 3),
            "submit_workers": submit_workers,
            "durations_match": bool(durations_match),
        }
    )
    print(
        f"  service_concurrency throughput: serial {serial_wall:.2f} s, "
        f"concurrent {concurrent_wall:.2f} s "
        f"({serial_wall / concurrent_wall:.2f}x, "
        f"{submit_workers} submit workers)"
    )
    if not durations_match:
        raise AssertionError(
            "concurrent submit() disagreed with serial compile()"
        )
    # The CI "never slower" gate: on a 1-CPU runner overlap degenerates to
    # interleaving, so concurrent must stay within a noise margin of
    # serial; on multi-core it should win outright.
    if concurrent_wall > serial_wall * 1.25:
        raise AssertionError(
            f"concurrent submit() was slower than serial compile() beyond "
            f"the noise margin: {concurrent_wall:.2f} s vs "
            f"{serial_wall:.2f} s"
        )
    return {"entries": entries, "derived": derived}


def bench_service_load(quick: bool) -> dict:
    """Concurrent clients vs dispatcher choice: in-process vs worker fleet.

    The load generator drives one :class:`~repro.service.CompilationService`
    with C concurrent clients submitting disjoint requests (no shared
    blocks), once per dispatcher config:

    * ``inline`` — the default in-process dispatcher (single process).
    * ``fleet_1w`` / ``fleet_2w`` — ``dispatcher="queue"`` with 1 and 2
      worker processes pulling :class:`~repro.pipeline.jobs.BlockJob`\\ s
      from the file-backed queue (full mode only runs ``fleet_1w``).

    Every config gets one untimed warmup round (absorbing worker spawn and
    numpy import) and then timed rounds over *fresh* circuits (distinct
    rotation angles, so neither the pulse cache nor block dedup can hide
    compile work).  Reported: per-request latency p50/p99 and round
    throughput, best-of across rounds.  Results must be identical across
    dispatchers (warm start pinned off — neighbor seeding depends on cache
    arrival order, which concurrency would make nondeterministic).

    The CI gate is host-independent: the 2-worker fleet must never be
    slower than single-process beyond a noise margin (on a 1-CPU runner
    process parallelism degenerates to time slicing).  The committed full
    run must additionally show fleet throughput ≥ 1.0× single-process.
    """
    import tempfile

    # Full mode drives enough concurrent clients that the inline
    # dispatcher's submit threads genuinely contend on the GIL (the
    # effect worker *processes* dodge), and takes best-of over several
    # rounds so one scheduler hiccup cannot decide the ratio.
    clients = 4 if quick else 6
    per_client = 1 if quick else 2
    timed_rounds = 2 if quick else 3
    n_requests = clients * per_client
    # A tight fidelity target keeps each block's GRAPE search substantial,
    # so the fixed per-job queue cost (pickle + poll + lease) is measured
    # against realistic compile times, not against trivial blocks.
    settings = GrapeSettings(dt_ns=0.5, target_fidelity=0.99)
    hyper = GrapeHyperparameters(
        learning_rate=0.05,
        decay_rate=0.002,
        # Same iteration budget in both modes: quick shrinks the client
        # count and rounds, not the per-block compile the overhead is
        # measured against (trivial blocks would gate on queue constants).
        max_iterations=300,
    )
    root = Path(tempfile.mkdtemp(prefix="bench_service_load_"))

    def _load_circuit(tag: str, offset: float) -> QuantumCircuit:
        # One 2-qubit block per request — the block IS the fleet's
        # dispatch unit, so a single-block workload measures dispatch
        # against compute.  (Multi-block requests would let the inline
        # path fold same-shape blocks into the cross-block batched GRAPE
        # kernel — a real but orthogonal advantage, measured on its own
        # in BENCH_grape_batch.)  The offset makes every circuit's
        # rotation (hence block unitary) unique across rounds/requests.
        circuit = QuantumCircuit(2, name=f"load_{tag}")
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.rz(offset + 0.1, 1)
        circuit.cx(0, 1)
        return circuit

    def _round_circuits(round_index: int) -> list:
        return [
            _load_circuit(
                f"r{round_index}_{i}", 0.07 * (round_index * n_requests + i + 1)
            )
            for i in range(n_requests)
        ]

    def _run_round(service, circuits):
        """Submit one batch concurrently; per-request latency via callbacks."""
        latencies: list = []
        futures = []
        start = time.perf_counter()
        for circuit in circuits:
            request = CompileRequest(
                circuit=circuit, strategy="full-grape", max_block_width=2
            )
            submitted = time.perf_counter()
            future = service.submit(request)
            future.add_done_callback(
                lambda _f, t=submitted: latencies.append(
                    time.perf_counter() - t
                )
            )
            futures.append(future)
        results = [future.result(timeout=600) for future in futures]
        wall = time.perf_counter() - start
        return wall, latencies, [r.program.duration_ns for r in results]

    configs = [
        ("inline", ServiceConfig(submit_workers=clients, warm_start=False,
                                 queue_depth=n_requests)),
    ]
    fleet_counts = (2,) if quick else (1, 2)
    for count in fleet_counts:
        configs.append(
            (
                f"fleet_{count}w",
                ServiceConfig(
                    submit_workers=clients,
                    warm_start=False,
                    queue_depth=n_requests,
                    dispatcher="queue",
                    fleet_dir=str(root / f"fleet_{count}w"),
                    fleet_workers=count,
                ),
            )
        )

    entries = []
    derived: dict = {}
    durations_by_round: dict = {}
    for config_name, config in configs:
        walls, all_latencies = [], []
        service = CompilationService(
            config=config,
            device=GmonDevice(line_topology(4)),
            settings=settings,
            hyperparameters=hyper,
        )
        try:
            # Warmup (untimed): pays worker spawn + numpy import for the
            # fleet configs and warms module caches for all of them.
            _run_round(service, _round_circuits(100))
            for round_index in range(timed_rounds):
                wall, latencies, durations = _run_round(
                    service, _round_circuits(round_index)
                )
                walls.append(wall)
                all_latencies.extend(latencies)
                durations_by_round.setdefault(round_index, {})[config_name] = (
                    durations
                )
                entries.append(
                    {
                        "name": f"{config_name}_round_{round_index}",
                        "wall_s": round(wall, 4),
                        "requests": n_requests,
                        "clients": clients,
                        "throughput_rps": round(n_requests / wall, 3),
                    }
                )
            executor_info = service.executor.describe()
            backpressure = service.stats()["requests"]["backpressure_waits"]
        finally:
            service.close()
        best_wall = min(walls)
        latencies_ms = np.asarray(all_latencies) * 1e3
        derived[f"{config_name}_throughput_rps"] = round(
            n_requests / best_wall, 3
        )
        derived[f"{config_name}_p50_ms"] = round(
            float(np.percentile(latencies_ms, 50)), 1
        )
        derived[f"{config_name}_p99_ms"] = round(
            float(np.percentile(latencies_ms, 99)), 1
        )
        derived[f"{config_name}_backpressure_waits"] = backpressure
        if config_name.startswith("fleet"):
            derived[f"{config_name}_completions_by_worker"] = executor_info[
                "completions_by_worker"
            ]
        print(
            f"  service_load {config_name}: best {best_wall:.2f} s "
            f"({n_requests / best_wall:.2f} req/s, "
            f"p50 {derived[f'{config_name}_p50_ms']:.0f} ms, "
            f"p99 {derived[f'{config_name}_p99_ms']:.0f} ms)"
        )

    for round_index, by_config in durations_by_round.items():
        expected = by_config["inline"]
        for config_name, durations in by_config.items():
            if durations != expected:
                raise AssertionError(
                    f"dispatcher {config_name} disagreed with inline on "
                    f"round {round_index}: {durations} vs {expected}"
                )
    derived["durations_match"] = True

    ratio = round(
        derived["fleet_2w_throughput_rps"] / derived["inline_throughput_rps"],
        3,
    )
    derived["fleet_2w_vs_inline"] = ratio
    # CI "never slower" gate (quick mode runs on a 1-CPU runner where the
    # fleet cannot beat time slicing, only match it).
    if ratio < 1.0 / 1.35:
        raise AssertionError(
            f"2-worker fleet was slower than single-process beyond the "
            f"noise margin: {ratio:.2f}x"
        )
    if not quick and ratio < 1.0:
        raise AssertionError(
            f"full run must show fleet throughput >= 1.0x single-process, "
            f"got {ratio:.2f}x"
        )
    return {"entries": entries, "derived": derived}


def bench_http(quick: bool) -> dict:
    """HTTP frontend overhead: ``POST /v1/compile`` vs in-process compile.

    One serial service serves the *same* cached request through both
    venues, so the compile itself is a cache hit in both and the measured
    difference is pure transport: wire encode, one localhost HTTP/1.1
    round-trip (keep-alive would help a tight loop; urllib reconnects, so
    this is the conservative number), wire decode.  Every remote result
    must be bit-identical to the inline one — the wire format's
    repr-float schedules make that an exact assertion, not a tolerance.
    """
    from repro.server import CompilationServer, ServerClient

    iterations = 30 if quick else 200
    settings = GrapeSettings(dt_ns=0.5, target_fidelity=0.95)
    hyper = GrapeHyperparameters(
        learning_rate=0.05, decay_rate=0.002, max_iterations=120
    )
    circuit = QuantumCircuit(2, name="http_overhead")
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.rz(0.375, 1)
    request = CompileRequest(circuit, strategy="gate")

    def _controls(result):
        return [s.controls.tobytes() for s in result.compiled.program.schedules]

    service = CompilationService(
        config=ServiceConfig(executor="serial", warm_start=False),
        device=GmonDevice(line_topology(2)),
        settings=settings,
        hyperparameters=hyper,
    )
    inline_ms, http_ms = [], []
    try:
        with CompilationServer(service, port=0).start() as server:
            client = ServerClient(server.url, timeout_s=120.0)
            # Untimed warmup pays the one real GRAPE compile; everything
            # timed afterwards is a cache hit through both venues.
            expected = _controls(service.compile(request))
            for _ in range(iterations):
                start = time.perf_counter()
                inline_result = service.compile(request)
                inline_ms.append((time.perf_counter() - start) * 1e3)
                start = time.perf_counter()
                remote_result = client.compile(request)
                http_ms.append((time.perf_counter() - start) * 1e3)
                if _controls(remote_result) != expected:
                    raise AssertionError(
                        "HTTP compile returned different pulses than the "
                        "in-process compile of the same request"
                    )
            server_stats = server.stats()
    finally:
        service.close()

    derived = {
        "iterations": iterations,
        "inline_p50_ms": round(float(np.percentile(inline_ms, 50)), 3),
        "inline_p99_ms": round(float(np.percentile(inline_ms, 99)), 3),
        "http_p50_ms": round(float(np.percentile(http_ms, 50)), 3),
        "http_p99_ms": round(float(np.percentile(http_ms, 99)), 3),
        "results_identical": True,
        "http_requests_total": server_stats["requests_total"],
    }
    derived["overhead_p50_ms"] = round(
        derived["http_p50_ms"] - derived["inline_p50_ms"], 3
    )
    # Pathology gate only (localhost HTTP should cost single-digit ms;
    # the margin absorbs loaded CI runners, not real regressions).
    if derived["overhead_p50_ms"] > 250:
        raise AssertionError(
            f"HTTP overhead p50 of {derived['overhead_p50_ms']:.0f} ms "
            "is far beyond a localhost round-trip"
        )
    print(
        f"  http: inline p50 {derived['inline_p50_ms']:.1f} ms, "
        f"http p50 {derived['http_p50_ms']:.1f} ms "
        f"(overhead {derived['overhead_p50_ms']:.1f} ms, "
        f"p99 {derived['http_p99_ms']:.1f} ms)"
    )
    entries = [
        {
            "name": "http_sync_compile",
            "p50_ms": derived["http_p50_ms"],
            "p99_ms": derived["http_p99_ms"],
            "iterations": iterations,
        },
        {
            "name": "inline_compile",
            "p50_ms": derived["inline_p50_ms"],
            "p99_ms": derived["inline_p99_ms"],
            "iterations": iterations,
        },
    ]
    return {"entries": entries, "derived": derived}


def bench_grape_batch(quick: bool) -> dict:
    """Cross-block batched GRAPE kernel vs the per-block kernel, serially.

    N Haar-random 2-qubit targets (dim 9, one shared control shape) run
    once through :func:`repro.pulse.grape.batched.optimize_pulse_batch`
    and once as N serial :func:`~repro.pulse.grape.engine.optimize_pulse`
    calls.  Outputs are checked ≤1e-10 identical before any timing, so
    the speedup is pure dispatch-overhead amortization: every hot
    contraction fuses ``blocks × steps`` small GEMMs into one BLAS call.

    Gates: batched must never be slower than per-block (CI, any host);
    the full run must additionally hold the ≥1.3× headline at 8 blocks.
    A scan-blocking sweep of the stacked prefix-product scan rides along
    (informational — it is where the batched calls' width comes from).
    """
    from repro.linalg.random import haar_random_unitary
    from repro.linalg.scan import forward_partial_products, scan_block_size
    from repro.pulse.grape.batched import optimize_pulse_batch
    from repro.pulse.grape.engine import optimize_pulse
    from repro.pulse.hamiltonian import build_control_set

    control_set = build_control_set(GmonDevice(line_topology(2)), (0, 1))
    num_steps = 16 if quick else 32
    repeats = 2 if quick else 3
    settings = GrapeSettings(dt_ns=0.5, target_fidelity=0.999)
    hyper = GrapeHyperparameters(
        learning_rate=0.05,
        decay_rate=0.002,
        max_iterations=40 if quick else 120,
    )
    entries = []
    derived: dict = {}
    for batch in (4, 8, 16):
        targets = [
            haar_random_unitary(control_set.dim, seed=100 + i)
            for i in range(batch)
        ]

        def per_block():
            return [
                optimize_pulse(
                    control_set, target, num_steps, hyper, settings
                )
                for target in targets
            ]

        def batched():
            return optimize_pulse_batch(
                [control_set] * batch, targets, num_steps, hyper, settings
            )

        # Equivalence first: timing a wrong kernel is worthless.
        serial_results = per_block()
        batched_results = batched()
        deviation = max(
            max(
                abs(b.fidelity - s.fidelity),
                float(
                    np.abs(b.schedule.controls - s.schedule.controls).max()
                ),
            )
            for b, s in zip(batched_results, serial_results)
        )
        if deviation > 1e-10:
            raise AssertionError(
                f"batched kernel deviates from per-block at {batch} blocks: "
                f"{deviation:.3e}"
            )
        if any(
            b.iterations != s.iterations
            for b, s in zip(batched_results, serial_results)
        ):
            raise AssertionError(
                "batched kernel ran different iteration counts than the "
                "per-block path"
            )

        per_block_s = min(
            _time_wall(per_block) for _ in range(repeats)
        )
        batched_s = min(_time_wall(batched) for _ in range(repeats))
        speedup = per_block_s / batched_s
        shared = {
            "blocks": batch,
            "dim": control_set.dim,
            "n_steps": num_steps,
            "iterations": sum(r.iterations for r in serial_results),
            "max_abs_deviation": deviation,
        }
        entries.append(
            {"name": f"per-block-{batch}", "wall_s": round(per_block_s, 4), **shared}
        )
        entries.append(
            {"name": f"batched-{batch}", "wall_s": round(batched_s, 4), **shared}
        )
        derived[f"speedup_batch_{batch}"] = round(speedup, 3)
        print(
            f"  grape_batch {batch} blocks: per-block {per_block_s:.3f} s, "
            f"batched {batched_s:.3f} s, speedup {speedup:.2f}x "
            f"(max deviation {deviation:.2e})"
        )
        # The CI "never slower" gate, margin-padded against scheduler noise.
        if batched_s > per_block_s * 1.10:
            raise AssertionError(
                f"batched kernel was slower than per-block at {batch} "
                f"blocks: {batched_s:.3f} s vs {per_block_s:.3f} s"
            )
    derived["headline_speedup"] = derived["speedup_batch_8"]
    if not quick and derived["headline_speedup"] < 1.3:
        raise AssertionError(
            f"the 8-block batched speedup fell below the 1.3x acceptance "
            f"floor: {derived['headline_speedup']:.2f}x"
        )

    # Scan-blocking sweep on a single propagator stack — the per-block
    # case the blocked scan was built for (a cross-block leading axis
    # widens every GEMM further on top of this).
    sweep_steps = 48
    rng_props = np.stack(
        [
            haar_random_unitary(control_set.dim, seed=1000 + k)
            for k in range(sweep_steps)
        ]
    )
    default_size = scan_block_size(sweep_steps)
    sweep_sizes = sorted({1, 2, 4, default_size, 12, sweep_steps})
    for size in sweep_sizes:
        per_call_ms = _time_per_call_ms(
            lambda: forward_partial_products(rng_props, block_size=size),
            repeats=3,
            inner=3 if quick else 5,
        )
        entries.append(
            {
                "name": f"scan-block-{size}",
                "per_call_ms": per_call_ms,
                "block_size": size,
                "is_default": size == default_size,
                "n_steps": sweep_steps,
            }
        )
    sequential_ms = next(
        e["per_call_ms"] for e in entries if e.get("block_size") == 1
    )
    default_ms = next(
        e["per_call_ms"]
        for e in entries
        if e.get("block_size") == default_size
    )
    derived["scan_default_block_size"] = default_size
    derived["scan_blocked_speedup"] = round(sequential_ms / default_ms, 3)
    print(
        f"  grape_batch scan sweep: sequential {sequential_ms:.3f} ms, "
        f"blocked({default_size}) {default_ms:.3f} ms "
        f"({sequential_ms / default_ms:.2f}x)"
    )
    return {"entries": entries, "derived": derived}


def bench_time_search(quick: bool) -> dict:
    """Minimum-time search: sequential vs auto vs forced speculation.

    The upper bound is chosen so the initial feasibility probes (the bound
    and its half) fail, forcing the doubling phase — the part
    ``probe_executor`` parallelizes.  Forced ``"thread"`` speculation
    trades extra GRAPE iterations (every doubling candidate runs) for
    wall-clock latency, so it is recorded but never gated (few-core
    machines invert the trade).  ``"auto"`` is gated: it declines
    speculation exactly when cores are scarce, so it must never be slower
    than the lazy sequential path beyond a noise margin on any host.
    """
    from repro.linalg.random import haar_random_unitary
    from repro.pulse.grape.time_search import minimum_time_pulse
    from repro.pulse.hamiltonian import build_control_set

    device = GmonDevice(line_topology(2))
    control_set = build_control_set(device, (0, 1))
    target = haar_random_unitary(4, seed=7)
    settings = GrapeSettings(dt_ns=0.5, target_fidelity=0.95)
    hyper = GrapeHyperparameters(
        learning_rate=0.05,
        decay_rate=0.002,
        max_iterations=120 if quick else 300,
    )
    # A Haar-random SU(4) needs ~4 ns at these settings; bounding the first
    # probe at 2 ns makes it (and the 1 ns half-probe) fail, so the search
    # must double its way to feasibility.
    upper_bound_ns = 2.0
    repeats = 3 if quick else 5
    entries = []
    outcomes = {}
    modes = (
        ("sequential", None),
        ("auto", "auto"),
        ("speculative-thread", "thread"),
    )
    for name, probe_executor in modes:
        walls = []
        result = None
        for _ in range(repeats):
            start = time.perf_counter()
            result = minimum_time_pulse(
                control_set,
                target,
                upper_bound_ns=upper_bound_ns,
                hyperparameters=hyper,
                settings=settings,
                probe_executor=probe_executor,
            )
            walls.append(time.perf_counter() - start)
        outcomes[name] = (min(walls), result)
        entries.append(
            {
                "name": name,
                "wall_s": round(min(walls), 4),
                "duration_ns": round(result.duration_ns, 3),
                "converged": result.converged,
                "total_iterations": result.total_iterations,
                "grape_calls": result.grape_calls,
            }
        )
        print(
            f"  time_search {name}: {min(walls):.3f} s, "
            f"{result.total_iterations} iterations over {result.grape_calls} "
            f"probes, minimum time {result.duration_ns:.1f} ns"
        )
    seq_wall, seq = outcomes["sequential"]
    auto_wall, auto = outcomes["auto"]
    spec_wall, spec = outcomes["speculative-thread"]
    derived = {
        "speedup_auto": round(seq_wall / auto_wall, 3),
        "speedup_speculative": round(seq_wall / spec_wall, 3),
        "sequential_duration_ns": round(seq.duration_ns, 3),
        "auto_duration_ns": round(auto.duration_ns, 3),
        "speculative_duration_ns": round(spec.duration_ns, 3),
        "auto_extra_iterations": auto.total_iterations - seq.total_iterations,
        "extra_probe_iterations": spec.total_iterations - seq.total_iterations,
        # Both initial feasibility probes (bound + half-bound) must fail
        # for the doubling phase — the part probe_executor parallelizes —
        # to run at all.
        "doubling_phase_triggered": (
            len(seq.probes) >= 2
            and not seq.probes[0][2]
            and not seq.probes[1][2]
        ),
    }
    if not (seq.converged and auto.converged and spec.converged):
        raise AssertionError("every time-search mode must converge on this block")
    if not derived["doubling_phase_triggered"]:
        raise AssertionError(
            "the bench workload must force the feasibility-doubling phase "
            "(the part probe_executor parallelizes)"
        )
    # The CI "never slower" gate: auto declines speculation when cores are
    # scarce and enables it when they are free, so it must track the
    # better choice within scheduler noise on any host.
    if auto_wall > seq_wall * 1.15:
        raise AssertionError(
            f"auto probe executor was slower than sequential beyond the "
            f"noise margin: {auto_wall:.3f} s vs {seq_wall:.3f} s"
        )
    return {"entries": entries, "derived": derived}


def bench_warm_start(quick: bool) -> dict:
    """Warm-started GRAPE: cold vs neighbor-seeded vs KAK-seeded compiles.

    One base two-qubit block is compiled and cached, then a set of
    near-miss variants (small Rz perturbations, within the default
    neighbor distance threshold) is compiled three ways:

    * ``cold`` — warm start disabled; every variant pays the full search.
    * ``neighbor`` — warm start enabled against the pre-populated cache;
      every variant must seed from the base block's pulse.
    * ``kak`` — warm start enabled against an *empty* cache, so every
      variant falls back to the analytic KAK seed.

    Iterations (ADAM steps summed over every probe) are the
    hardware-independent latency measure.  The CI gate in both modes:
    neighbor-seeded compiles are never slower than cold.  The full run
    additionally enforces the headline ≥30% iteration reduction.  KAK
    numbers are recorded but ungated — the analytic seed's payoff varies
    with how far the random targets sit from the native interactions.
    """
    from repro.core.compiler import BlockPulseCompiler
    from repro.pulse.grape.seeding import warm_start_telemetry

    settings = GrapeSettings(dt_ns=0.5, target_fidelity=0.95)
    hyper = GrapeHyperparameters(
        learning_rate=0.05,
        decay_rate=0.002,
        max_iterations=100 if quick else 200,
    )
    base_angle = 0.3
    deltas = [0.02, -0.03] if quick else [0.02, -0.03, 0.05, -0.05, 0.03, -0.04]
    variants = [base_angle + d for d in deltas]

    def block(angle: float) -> QuantumCircuit:
        circuit = QuantumCircuit(2).h(0).cx(0, 1)
        circuit.rz(angle, 1)
        return circuit

    def compile_variants(warm_start: bool, prepopulate: bool) -> dict:
        compiler = BlockPulseCompiler(
            GmonDevice(line_topology(2)),
            settings,
            hyper,
            PulseCache(),
            warm_start=warm_start,
        )
        if prepopulate:
            compiler.compile_block(block(base_angle), (0, 1))
        iterations = 0
        duration_ns = 0.0
        start = time.perf_counter()
        for angle in variants:
            outcome = compiler.compile_block(block(angle), (0, 1))
            if outcome.fidelity < settings.target_fidelity:
                raise AssertionError(
                    f"variant rz({angle}) missed the fidelity target: "
                    f"{outcome.fidelity:.4f}"
                )
            iterations += outcome.iterations
            duration_ns += outcome.duration_ns
        return {
            "iterations": iterations,
            "duration_ns": round(duration_ns, 3),
            "wall_s": round(time.perf_counter() - start, 4),
        }

    perf = get_perf_registry()
    modes = {}
    entries = []
    for name, warm, prepopulate in (
        ("cold", False, True),
        ("neighbor", True, True),
        ("kak", True, False),
    ):
        seeds_before = perf.counter("grape.warm_start.neighbor_seeds")
        modes[name] = compile_variants(warm, prepopulate)
        # Per-mode count: the kak run legitimately neighbor-seeds its own
        # later variants from its earlier ones, so a global delta would
        # conflate the modes.
        modes[name]["neighbor_seeds"] = (
            perf.counter("grape.warm_start.neighbor_seeds") - seeds_before
        )
        entries.append({"name": name, "variants": len(variants), **modes[name]})
        print(
            f"  warm_start {name}: {modes[name]['iterations']} iterations, "
            f"total pulse {modes[name]['duration_ns']} ns, "
            f"{modes[name]['wall_s']:.3f} s"
        )
    neighbor_seeds_used = modes["neighbor"]["neighbor_seeds"]

    cold_iters = modes["cold"]["iterations"]
    derived = {
        "iteration_reduction_neighbor": round(
            1.0 - modes["neighbor"]["iterations"] / cold_iters, 4
        ),
        "iteration_reduction_kak": round(
            1.0 - modes["kak"]["iterations"] / cold_iters, 4
        ),
        "cold_iterations": cold_iters,
        "neighbor_iterations": modes["neighbor"]["iterations"],
        "kak_iterations": modes["kak"]["iterations"],
        "neighbor_seeds_used": neighbor_seeds_used,
        "duration_ratio_neighbor": round(
            modes["neighbor"]["duration_ns"] / modes["cold"]["duration_ns"], 4
        ),
        "telemetry": warm_start_telemetry(),
    }
    if neighbor_seeds_used < len(variants):
        raise AssertionError(
            f"only {neighbor_seeds_used} of {len(variants)} variants "
            "neighbor-seeded — the bench cache pre-population is broken"
        )
    # CI gate (both modes): seeding must never cost iterations.
    if modes["neighbor"]["iterations"] > cold_iters:
        raise AssertionError(
            f"neighbor-seeded compiles used more iterations than cold: "
            f"{modes['neighbor']['iterations']} vs {cold_iters}"
        )
    # Seeded pulses must never be longer than cold ones in aggregate —
    # fewer iterations would be a hollow win if pulse quality regressed.
    if modes["neighbor"]["duration_ns"] > modes["cold"]["duration_ns"] + 1e-9:
        raise AssertionError(
            f"neighbor-seeded pulses are longer than cold: "
            f"{modes['neighbor']['duration_ns']} ns vs "
            f"{modes['cold']['duration_ns']} ns"
        )
    # The headline claim, enforced in the committed full run only (quick
    # mode's tiny workload is too noisy to hold a ratio to).
    if not quick and derived["iteration_reduction_neighbor"] < 0.30:
        raise AssertionError(
            "neighbor-seeded iteration reduction fell below the 30% "
            f"headline: {derived['iteration_reduction_neighbor']:.1%}"
        )
    return {"entries": entries, "derived": derived}


BENCHES = {
    "cache": bench_cache,
    "grape_batch": bench_grape_batch,
    "grape_kernel": bench_grape_kernel,
    "http": bench_http,
    "pipeline": bench_pipeline,
    "service_concurrency": bench_service_concurrency,
    "service_load": bench_service_load,
    "session": bench_session,
    "time_search": bench_time_search,
    "warm_start": bench_warm_start,
}


def _host_info() -> dict:
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
    }


def _git_commit() -> str | None:
    """The current commit hash, or ``None`` outside a usable git checkout."""
    import subprocess

    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=Path(__file__).resolve().parent,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def run(names, quick: bool, output_dir: Path) -> list:
    output_dir.mkdir(parents=True, exist_ok=True)
    written = []
    derived_by_bench = {}
    for name in names:
        print(f"running {name} benchmark ({'quick' if quick else 'full'} mode)")
        payload = {
            "benchmark": name,
            "schema_version": BENCH_SCHEMA_VERSION,
            "quick": quick,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "host": _host_info(),
            **BENCHES[name](quick),
        }
        payload["perf_counters"] = get_perf_registry().snapshot()["counters"]
        path = output_dir / f"BENCH_{name}.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        written.append(path)
        derived_by_bench[name] = payload["derived"]
        print(f"  wrote {path}")
    # The per-bench snapshots overwrite each run; the trend file *appends*,
    # so metric trajectories accumulate across commits (CI uploads it too).
    trend_path = output_dir / "BENCH_trend.jsonl"
    row = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "commit": _git_commit(),
        "quick": quick,
        "benches": derived_by_bench,
    }
    with open(trend_path, "a") as fh:
        fh.write(json.dumps(row, sort_keys=True) + "\n")
    written.append(trend_path)
    print(f"  appended trend row to {trend_path}")
    return written


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the perf benches and write BENCH_*.json artifacts."
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI-sized workloads (seconds instead of minutes)",
    )
    parser.add_argument(
        "--only",
        action="append",
        choices=sorted(BENCHES),
        help="run just this bench (repeatable; default: all)",
    )
    parser.add_argument(
        "--output-dir",
        type=Path,
        default=DEFAULT_OUTPUT_DIR,
        help=f"where BENCH_*.json land (default: {DEFAULT_OUTPUT_DIR})",
    )
    args = parser.parse_args(argv)
    names = args.only or sorted(BENCHES)
    run(names, args.quick, args.output_dir)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
