"""Shared infrastructure for the benchmark harness.

Every table and figure bench pulls its workloads and compilers from here so
that expensive artifacts (transpiled circuits, precompiled partial
compilers, GRAPE pulses) are computed once per pytest session and shared
across benches.  Everything compiles through one
:class:`~repro.service.CompilationService`, the library's one front door:
its pulse cache carries Fixed blocks from one benchmark to the next.

Scope control
-------------
The default scope runs the laptop-sized subset (small molecules, N=6 QAOA,
reduced p grid) with the coarse CI GRAPE settings.  Set ``REPRO_BENCH_FULL=1``
to run every benchmark of the paper at finer settings — hours of compute,
as in the original study (DESIGN.md substitution 4).
"""

from __future__ import annotations

import atexit
import json
import os
import sys
from pathlib import Path

import numpy as np

from repro.pulse.device import GmonDevice
from repro.pulse.grape.engine import GrapeHyperparameters, GrapeSettings
from repro.qaoa import maxcut_problem, qaoa_circuit
from repro.service import CompilationService, CompileRequest, ServiceConfig
from repro.transpile import transpile
from repro.transpile.topology import nearly_square_grid
from repro.vqe import get_molecule

FULL_MODE = os.environ.get("REPRO_BENCH_FULL", "0") == "1"

RESULTS_DIR = Path(__file__).parent / "results"

#: The default-scope paper outputs the Table 4 and Figure 7 benches must
#: reproduce exactly (see that file's ``description``).
PAPER_EXPECTED_PATH = Path(__file__).parent / "paper_expected.json"

#: GRAPE numerics for the harness: coarse by default, paper-like in full mode.
SETTINGS = GrapeSettings(
    dt_ns=0.1 if FULL_MODE else 0.25,
    target_fidelity=0.999 if FULL_MODE else 0.99,
)
HYPER = GrapeHyperparameters(
    learning_rate=0.05,
    decay_rate=0.002,
    max_iterations=800 if FULL_MODE else 200,
)
MAX_BLOCK_WIDTH = 4 if FULL_MODE else 3

#: Benchmark scope.
VQE_MOLECULES = ("H2", "LiH", "BeH2", "NaH", "H2O") if FULL_MODE else ("H2", "LiH")
QAOA_KINDS = ("3regular", "erdosrenyi")
QAOA_SIZES = (6, 8) if FULL_MODE else (6,)
QAOA_P_VALUES = tuple(range(1, 9)) if FULL_MODE else (1, 5)

#: Paper-reported values for paper-vs-measured reporting.
PAPER_TABLE4_NS = {
    "H2": {"gate": 35.3, "strict": 15.0, "flexible": 5.0, "grape": 3.1},
    "LiH": {"gate": 871.1, "strict": 307.0, "flexible": 84.0, "grape": 19.3},
    "BeH2": {"gate": 5308.3, "strict": 2596.5, "flexible": 2503.8, "grape": 2461.7},
    "NaH": {"gate": 5490.4, "strict": 2842.7, "flexible": 2770.8, "grape": 2752.0},
    "H2O": {"gate": 33842.2, "strict": 24781.4, "flexible": 23546.7, "grape": 23546.7},
    "qaoa_3regular_n6_p1": {"gate": 113.2, "strict": 91.2, "flexible": 72.0, "grape": 72.0},
    "qaoa_3regular_n6_p5": {"gate": 433.6, "strict": 397.6, "flexible": 206.2, "grape": 179.0},
    "qaoa_erdosrenyi_n6_p1": {"gate": 83.7, "strict": 54.0, "flexible": 26.4, "grape": 26.6},
    "qaoa_erdosrenyi_n6_p5": {"gate": 367.8, "strict": 291.8, "flexible": 150.0, "grape": 141.2},
    "qaoa_3regular_n8_p1": {"gate": 162.5, "strict": 134.0, "flexible": 112.0, "grape": 112.0},
    "qaoa_3regular_n8_p5": {"gate": 860.0, "strict": 711.6, "flexible": 498.9, "grape": 498.9},
    "qaoa_erdosrenyi_n8_p1": {"gate": 157.1, "strict": 100.0, "flexible": 80.5, "grape": 81.6},
    "qaoa_erdosrenyi_n8_p5": {"gate": 749.5, "strict": 551.7, "flexible": 434.8, "grape": 513.7},
}

PAPER_TABLE3_NS = {
    ("3regular", 6): [113, 199, 277, 356, 434, 512, 590, 668],
    ("erdosrenyi", 6): [84, 151, 223, 296, 368, 440, 512, 584],
    ("3regular", 8): [163, 365, 530, 695, 860, 1025, 1191, 1356],
    ("erdosrenyi", 8): [157, 297, 443, 596, 750, 903, 1056, 1209],
}

_circuit_cache: dict = {}
_compiler_cache: dict = {}
_service = None


def service() -> CompilationService:
    """The session's one service (default config, the harness's GRAPE
    settings), created on first use and closed at exit.  Its default
    device for an n-qubit circuit is the nearly-square grid
    :func:`device_for` builds."""
    global _service
    if _service is None:
        _service = CompilationService(
            config=ServiceConfig(), settings=SETTINGS, hyperparameters=HYPER
        )
        atexit.register(_service.close)
    return _service


def _routed(circuit):
    """Transpile + route to the nearest-neighbor grid (paper Appendix A),
    tagging the circuit with its topology so the pulse device matches."""
    topology = nearly_square_grid(circuit.num_qubits)
    routed = transpile(circuit, topology=topology)
    routed.bench_topology = topology
    return routed


def vqe_circuit(name: str):
    """Routed UCCSD benchmark circuit for molecule ``name`` (cached)."""
    key = ("vqe", name)
    if key not in _circuit_cache:
        spec = get_molecule(name)
        _circuit_cache[key] = _routed(spec.ansatz())
    return _circuit_cache[key]


def qaoa_bench_circuit(kind: str, num_nodes: int, p: int, seed: int = 0):
    """Routed QAOA benchmark circuit (cached)."""
    key = ("qaoa", kind, num_nodes, p, seed)
    if key not in _circuit_cache:
        problem = maxcut_problem(kind, num_nodes, seed=seed)
        _circuit_cache[key] = _routed(qaoa_circuit(problem, p))
    return _circuit_cache[key]


def device_for(circuit):
    topology = getattr(circuit, "bench_topology", None)
    if topology is None:
        topology = nearly_square_grid(circuit.num_qubits)
    return GmonDevice(topology)


def random_parameters(circuit, seed: int = 0):
    """One reproducible parametrization for ``circuit``."""
    rng = np.random.default_rng(seed)
    return list(rng.uniform(-np.pi / 2, np.pi / 2, size=len(circuit.parameters)))


def _precompiled(strategy: str, tag: str, circuit, **options):
    """The plan compiler of a ``values=None`` request (cached per tag)."""
    key = (strategy, tag)
    if key not in _compiler_cache:
        _compiler_cache[key] = service().compile(
            CompileRequest(
                circuit,
                None,
                strategy=strategy,
                max_block_width=MAX_BLOCK_WIDTH,
                options=options,
            )
        ).compiler
    return _compiler_cache[key]


def strict_compiler(tag: str, circuit):
    """Precompiled strict compiler for ``circuit`` (cached per tag)."""
    return _precompiled("strict-partial", tag, circuit)


def flexible_compiler(tag: str, circuit, tuning_samples: int = 1):
    """Precompiled flexible compiler for ``circuit`` (cached per tag)."""
    return _precompiled(
        "flexible-partial",
        tag,
        circuit,
        tuning_samples=2 if FULL_MODE else tuning_samples,
        learning_rates=(0.01, 0.03, 0.1) if FULL_MODE else (0.03, 0.1),
        decay_rates=(0.0, 0.002, 0.01) if FULL_MODE else (0.0, 0.01),
    )


def compile_values(circuit, theta, strategy: str, **request_options):
    """One ``strategy`` request for ``circuit`` at ``theta``; the
    :class:`~repro.core.results.CompiledPulse` it returns."""
    return service().compile(
        CompileRequest(
            circuit,
            theta,
            strategy=strategy,
            max_block_width=MAX_BLOCK_WIDTH,
            **request_options,
        )
    ).compiled


_durations_cache: dict = {}


def durations_for(tag: str, circuit, methods=("gate", "strict", "flexible", "grape")):
    """Pulse durations (and latency info) per method for one benchmark.

    Cached per tag so Table 4, Figure 5, and Figure 7 share the heavy
    computation within a session.
    """
    if tag in _durations_cache:
        cached = _durations_cache[tag]
        if all(m in cached for m in methods):
            return cached
    theta = random_parameters(circuit)
    record = _durations_cache.setdefault(tag, {})
    if "gate" in methods and "gate" not in record:
        result = compile_values(circuit, theta, "gate")
        record["gate"] = result.pulse_duration_ns
        record["gate_latency_s"] = result.runtime_latency_s
    if "strict" in methods and "strict" not in record:
        compiler = strict_compiler(tag, circuit)
        result = compiler.compile(theta)
        record["strict"] = result.pulse_duration_ns
        record["strict_latency_s"] = result.runtime_latency_s
        record["strict_precompute_s"] = compiler.report.wall_time_s
    if "flexible" in methods and "flexible" not in record:
        compiler = flexible_compiler(tag, circuit)
        result = compiler.compile(theta)
        record["flexible"] = result.pulse_duration_ns
        record["flexible_latency_s"] = result.runtime_latency_s
        record["flexible_iterations"] = result.runtime_iterations
        record["flexible_precompute_s"] = compiler.report.wall_time_s
    if "grape" in methods and "grape" not in record:
        # Uncached: the paper's full-GRAPE latency is the out-of-the-box
        # cost of every block.
        result = compile_values(circuit, theta, "full-grape", use_cache=False)
        record["grape"] = result.pulse_duration_ns
        record["grape_latency_s"] = result.runtime_latency_s
        record["grape_iterations"] = result.runtime_iterations
    return record


def expected_paper_outputs() -> dict | None:
    """Recorded outputs per benchmark tag, or ``None`` in full mode, whose
    scope and GRAPE settings differ from the recording's."""
    if FULL_MODE:
        return None
    return json.loads(PAPER_EXPECTED_PATH.read_text())["benchmarks"]


def report(name: str, text: str, capsys=None) -> None:
    """Write a result table to benchmarks/results/ and the live terminal."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    if capsys is not None:
        with capsys.disabled():
            print(f"\n{text}\n[written to {path}]")
    else:
        print(f"\n{text}\n[written to {path}]", file=sys.stderr)
