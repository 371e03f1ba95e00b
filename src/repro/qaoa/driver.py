"""The QAOA optimization loop.

Like :class:`repro.vqe.VQEDriver`, the ``compiler`` hook's supported form
is a :class:`repro.service.CompilationService` (``compiler=service``
compiles every iteration through the service's shared executor and pulse
cache); any object with ``compile_parametrized(circuit, values)``
or ``compile(values)`` also works.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy import optimize as scipy_optimize

from repro.errors import QAOAError
from repro.qaoa.circuits import qaoa_circuit
from repro.qaoa.maxcut import MaxCutProblem, cut_value
from repro.sim.statevector import simulate


@dataclass
class QAOAResult:
    """Outcome of a QAOA run."""

    optimal_parameters: np.ndarray
    expected_cut: float
    optimal_cut: int
    best_sampled_cut: int
    iterations: int
    history: list = field(default_factory=list)
    wall_time_s: float = 0.0
    compile_latency_s: float = 0.0
    #: End-of-run telemetry from the compiler hook's ``stats()`` (e.g. a
    #: ``CompilationService``'s folded counters); ``None`` otherwise.
    compile_stats: dict | None = None

    @property
    def approximation_ratio(self) -> float:
        """Expected cut over the true optimum (Farhi et al. guarantee:
        ≥ 0.69 for 3-regular graphs at p=1)."""
        return self.expected_cut / self.optimal_cut if self.optimal_cut else 0.0


class QAOADriver:
    """QAOA over a MAXCUT instance with Nelder-Mead outer loop."""

    def __init__(
        self,
        problem: MaxCutProblem,
        p: int,
        max_iterations: int = 150,
        seed: int = 0,
        compiler=None,
        restarts: int = 1,
    ):
        self.problem = problem
        self.p = p
        self.circuit = qaoa_circuit(problem, p)
        self.max_iterations = max_iterations
        self.seed = seed
        self.compiler = compiler
        self.restarts = max(1, restarts)
        self._rng = np.random.default_rng(seed)

    def expected_cut(self, values: Sequence[float]) -> float:
        """⟨C⟩ = -⟨H⟩ for the bound circuit (H's ground energy = -maxcut)."""
        bound = self.circuit.bind_parameters(list(values))
        state = simulate(bound)
        return -self.problem.hamiltonian.expectation(state)

    def run(self, initial_parameters: Sequence[float] | None = None) -> QAOAResult:
        num_params = 2 * self.p
        if initial_parameters is None:
            initial = self._rng.uniform(0.1, 0.8, size=num_params)
        else:
            initial = np.asarray(list(initial_parameters), dtype=float)
            if initial.size != num_params:
                raise QAOAError(f"expected {num_params} parameters, got {initial.size}")

        history: list[float] = []
        compile_seconds = 0.0
        start = time.perf_counter()

        def objective(values: np.ndarray) -> float:
            nonlocal compile_seconds
            if self.compiler is not None:
                if hasattr(self.compiler, "compile_parametrized"):
                    compiled = self.compiler.compile_parametrized(self.circuit, list(values))
                else:
                    compiled = self.compiler.compile(list(values))
                compile_seconds += compiled.runtime_latency_s
            cut = self.expected_cut(values)
            history.append(cut)
            return -cut  # maximize the cut

        # Nelder-Mead with optional random restarts: the QAOA landscape has
        # local optima even at p=1, so the classical loop benefits from a
        # few independent starting points.
        budget = max(1, self.max_iterations // self.restarts)
        best_x, best_fun = None, float("inf")
        for restart in range(self.restarts):
            start_point = (
                initial
                if restart == 0
                else self._rng.uniform(0.05, 1.5, size=num_params)
            )
            result = scipy_optimize.minimize(
                objective,
                start_point,
                method="Nelder-Mead",
                options={"maxfev": budget, "xatol": 1e-4, "fatol": 1e-6},
            )
            if result.fun < best_fun:
                best_x, best_fun = result.x, float(result.fun)
        result = scipy_optimize.OptimizeResult(x=best_x, fun=best_fun)
        # Sample the optimized state for the best concrete cut.
        bound = self.circuit.bind_parameters(list(result.x))
        state = simulate(bound)
        counts = state.sample_counts(shots=256, seed=self.seed)
        best_cut = max(cut_value(self.problem.graph, bits) for bits in counts)

        compile_stats = None
        if self.compiler is not None and hasattr(self.compiler, "stats"):
            compile_stats = self.compiler.stats()
        return QAOAResult(
            optimal_parameters=np.asarray(result.x),
            expected_cut=float(-result.fun),
            optimal_cut=self.problem.optimal_cut,
            best_sampled_cut=best_cut,
            iterations=len(history),
            history=history,
            wall_time_s=time.perf_counter() - start,
            compile_latency_s=compile_seconds,
            compile_stats=compile_stats,
        )
