"""Perf harness: run the perf benches and write ``BENCH_*.json`` artifacts.

Unlike the table/figure benches (which reproduce the paper and print text
tables), this runner exists so that *speedup claims about this repository
itself* are machine-checkable and accumulate over time.  It keeps only
what the repository benchmark (``benchmarks/e2e``) cannot measure: the
end-to-end request paths are timed there, and the correctness checks of
the service's caches, sessions and HTTP frontend are plain tests.

* ``grape_kernel`` — per-iteration cost of one GRAPE ``cost_and_gradient``
  call on representative blocks, including the paper-scale 3-qubit qutrit
  block (dim 27).  The frozen pre-rewrite kernel
  (``benchmarks/grape_reference.py``) is the ``before`` reference; the
  live :class:`repro.pulse.grape.cost.GrapeCost` is the ``after``.  Both
  are checked to agree to ≤1e-10, then timed in interleaved rounds (best
  of each).  A record-only dim-4, 6-slice case — the size the repository
  benchmark's workloads run — also times the frozen pre-plan kernel,
  checked bit-identical first.
* ``grape_batch`` — the cross-block batched GRAPE kernel: N same-shape
  blocks optimized as one stacked tensor vs the same N blocks run through
  the per-block kernel serially, checked ≤1e-10 identical before timing,
  plus a scan-blocking sweep of the blocked prefix-product scan.  The CI
  gate: batched is never slower than per-block; the full run must show
  the ≥1.3× headline at 8 blocks.
* ``pipeline`` — the one serial-vs-``auto`` measurement: wall time of a
  multi-block compile under the ``serial`` executor vs the ``auto``
  executor (the service default), in interleaved rounds on fresh
  services.  Both must give the same blocks and pulse duration; ``auto``
  must never be slower than ``serial`` beyond a noise margin on any
  host, and must win outright when it forked a search worker.
* ``warm_start`` — warm-started GRAPE: near-miss variants of a cached
  block compiled cold vs neighbor-seeded (approximate-match retrieval
  from the pulse cache) vs KAK-seeded (analytic fallback, empty cache).
  The CI gate: neighbor seeding never costs iterations and never
  lengthens the pulses; the committed full run must show the ≥30%
  iteration-reduction headline.

The compile-level bench (``pipeline``) runs through
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


def _time_per_call_ms(fns, repeats: int, inner: int) -> list:
    """Each function's best over ``repeats`` rounds of the mean wall time
    of ``inner`` calls.

    The functions take turns within every round, so a burst of background
    load lands on all of them rather than on whichever was timed last.
    Best-of is the standard noise-robust statistic for microbenchmarks:
    scheduler interference only ever makes a sample slower.
    """
    for fn in fns:
        fn()  # warm caches / contraction plans outside the timed region
    samples = [[] for _ in fns]
    for _ in range(repeats):
        for fn, fn_samples in zip(fns, samples):
            start = time.perf_counter()
            for _ in range(inner):
                fn()
            fn_samples.append((time.perf_counter() - start) / inner * 1e3)
    return [min(fn_samples) for fn_samples in samples]


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
    Each case's kernels take turns in every timing round, and each keeps
    its best round, so host load cannot land on one side of a ratio only.
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

        timed = {
            "before": lambda: reference_cost_and_gradient(cost, controls),
            "after": lambda: cost.cost_and_gradient(controls),
        }
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
            timed["pre-plan"] = lambda: pre_plan.cost_and_gradient(controls)
        ms = dict(
            zip(timed, _time_per_call_ms(list(timed.values()), repeats, case_inner))
        )
        before_ms, after_ms = ms["before"], ms["after"]
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
            pre_plan_ms = ms["pre-plan"]
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
    gets out of the box.  Both executors must compile the same blocks to
    the same pulse duration.  Two wall-time gates follow:

    * on every host, whether or not ``auto`` forked search workers, it
      must never be slower than forcing ``serial`` beyond a noise margin
      (``auto ≤ 1.15 × serial``);
    * when ``auto`` forked its search workers, it must beat ``serial``
      outright on this embarrassingly parallel workload
      (``auto < 0.9 × serial``).
    """
    num_qubits = 6 if quick else 8
    settings = GrapeSettings(dt_ns=0.5, target_fidelity=0.95)
    hyper = GrapeHyperparameters(
        learning_rate=0.05,
        decay_rate=0.002,
        max_iterations=200 if quick else 250,
    )
    circuit = _tile_circuit(num_qubits)
    # Best of a few interleaved rounds per variant: one compile takes a
    # fraction of a second, so a single draw is at the mercy of whatever
    # else the host runs.  Interleaving exposes both variants to the same
    # background load.
    rounds = 3
    walls = {"serial": [], "auto": []}
    results = {}
    for _ in range(rounds):
        for name in ("serial", "auto"):
            # One service per run: a fresh in-memory cache and scheduler
            # state, so every block pays full GRAPE in every run.
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
            walls[name].append(time.perf_counter() - start)
            results[name] = result
            service.close()
    entries = []
    for name in ("serial", "auto"):
        result = results[name]
        wall = min(walls[name])
        entry = {
            "name": name,
            "wall_s": round(wall, 4),
            "rounds": rounds,
            "blocks": result.blocks_compiled,
            "pulse_duration_ns": round(result.pulse_duration_ns, 3),
            "batched_blocks": result.metadata["scheduler"].get(
                "batched_blocks", 0
            ),
            **result.metadata["executor"],
        }
        entries.append(entry)
        print(
            f"  pipeline {name}: best {wall:.2f} s of {rounds} over "
            f"{result.blocks_compiled} blocks "
            f"({entry.get('search_workers', 0)} search workers)"
        )
    serial_wall = entries[0]["wall_s"]
    auto = entries[1]
    derived = {
        "speedup_auto": round(serial_wall / auto["wall_s"], 3),
        "auto_batched_blocks": auto["batched_blocks"],
        "blocks_match": auto["blocks"] == entries[0]["blocks"],
        "durations_match": bool(
            np.isclose(
                results["serial"].pulse_duration_ns,
                results["auto"].pulse_duration_ns,
            )
        ),
    }
    if not (derived["blocks_match"] and derived["durations_match"]):
        raise AssertionError("executors disagreed on the compiled program")
    # The CI "never slower" gate: auto must not lose to serial on any host
    # beyond scheduler noise — the whole point of auto-selection.
    if auto["wall_s"] > serial_wall * 1.15:
        raise AssertionError(
            f"auto executor was slower than serial beyond the noise margin: "
            f"{auto['wall_s']:.2f} s vs {serial_wall:.2f} s"
        )
    # With a second CPU the forked worker runs a share of the block
    # searches, so auto must win outright.
    if auto.get("search_workers", 0) > 0 and auto["wall_s"] >= serial_wall * 0.9:
        raise AssertionError(
            f"auto executor with a search worker did not beat serial: "
            f"{auto['wall_s']:.2f} s vs {serial_wall:.2f} s"
        )
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
        [per_call_ms] = _time_per_call_ms(
            [lambda: forward_partial_products(rng_props, block_size=size)],
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
    "grape_batch": bench_grape_batch,
    "grape_kernel": bench_grape_kernel,
    "pipeline": bench_pipeline,
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
