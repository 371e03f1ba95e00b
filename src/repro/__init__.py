"""repro — Partial Compilation of Variational Algorithms (MICRO 2019).

A from-scratch reproduction of Gokhale et al., "Partial Compilation of
Variational Algorithms for Noisy Intermediate-Scale Quantum Machines"
(MICRO-52, 2019): a quantum circuit IR and transpiler, a gmon pulse-level
device model, a GRAPE optimal-control engine, and the paper's contribution —
strict and flexible partial compilation for variational algorithms (VQE and
QAOA).

Quickstart::

    from repro import qaoa
    from repro.service import CompilationService, CompileRequest

    problem = qaoa.maxcut_problem("3regular", 6, seed=0)
    circuit = qaoa.qaoa_circuit(problem, p=1)
    with CompilationService() as service:
        result = service.compile(
            CompileRequest(circuit, [0.3, 1.1], strategy="strict-partial")
        )
    print(result.pulse_duration_ns)
"""

from repro import (
    analysis,
    blocking,
    circuits,
    core,
    fleet,
    linalg,
    pipeline,
    pulse,
    qaoa,
    service,
    sim,
    transpile,
    vqe,
)
from repro.config import available_presets, get_preset, set_preset
from repro.errors import ReproError

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "analysis",
    "available_presets",
    "blocking",
    "circuits",
    "core",
    "fleet",
    "get_preset",
    "linalg",
    "pipeline",
    "pulse",
    "qaoa",
    "service",
    "set_preset",
    "sim",
    "transpile",
    "vqe",
    "__version__",
]
