"""The hybrid quantum-classical VQE loop (paper Figure 1).

The quantum side is simulated exactly (statevector); the classical side is
Nelder-Mead — the noise-robust optimizer the paper cites — or SPSA.  An
optional compiler hook compiles the circuit at every iteration, which is how
the aggregate-latency numbers of paper section 8.4 are reproduced: strict
partial compilation pays ~0 per iteration where full GRAPE pays minutes.

The supported compiler hook is a
:class:`repro.service.CompilationService` — ``VQEDriver(compiler=service)``
routes every iteration's compilation through the service's
``compile_parametrized`` hook, so the whole optimizer loop shares one
executor and one pulse cache (iteration N+1 dispatches GRAPE only for
blocks the whole run has never seen).  Any
object exposing ``compile_parametrized(circuit, values)`` works.  When
the hook exposes ``stats()`` (a service does), its end-of-run snapshot
lands in :attr:`VQEResult.compile_stats`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy import optimize as scipy_optimize

from repro.circuits.circuit import QuantumCircuit
from repro.errors import VQEError
from repro.sim.pauli import PauliSum
from repro.sim.statevector import simulate


@dataclass
class VQEResult:
    """Outcome of a VQE run."""

    optimal_parameters: np.ndarray
    optimal_energy: float
    exact_energy: float | None
    iterations: int
    energy_history: list = field(default_factory=list)
    wall_time_s: float = 0.0
    compile_latency_s: float = 0.0
    compile_pulse_ns: list = field(default_factory=list)
    #: End-of-run telemetry from the compiler hook's ``stats()`` (e.g. a
    #: service's scheduler reuse counters); ``None`` otherwise.
    compile_stats: dict | None = None

    @property
    def error_to_exact(self) -> float | None:
        if self.exact_energy is None:
            return None
        return abs(self.optimal_energy - self.exact_energy)


class VQEDriver:
    """Variational quantum eigensolver over a Pauli-sum Hamiltonian."""

    def __init__(
        self,
        hamiltonian: PauliSum,
        ansatz: QuantumCircuit,
        optimizer: str = "nelder-mead",
        max_iterations: int = 200,
        seed: int = 0,
        compiler=None,
        shots: int | None = None,
    ):
        if hamiltonian.num_qubits != ansatz.num_qubits:
            raise VQEError(
                f"Hamiltonian width {hamiltonian.num_qubits} != ansatz width "
                f"{ansatz.num_qubits}"
            )
        if optimizer not in ("nelder-mead", "spsa"):
            raise VQEError(f"unknown optimizer {optimizer!r}")
        self.hamiltonian = hamiltonian
        self.ansatz = ansatz
        self.optimizer = optimizer
        self.max_iterations = max_iterations
        self.seed = seed
        self.compiler = compiler
        self.shots = shots
        self._rng = np.random.default_rng(seed)

    # -- energy evaluation -------------------------------------------------
    def energy(self, values: Sequence[float]) -> float:
        """⟨ψ(θ)|H|ψ(θ)⟩, optionally with sampling noise of ``shots``."""
        bound = self.ansatz.bind_parameters(list(values))
        state = simulate(bound)
        exact = self.hamiltonian.expectation(state)
        if self.shots is None:
            return exact
        # Model shot noise as Gaussian with the standard 1/sqrt(shots) width.
        spread = np.sqrt(max(1e-12, self._variance(state))) / np.sqrt(self.shots)
        return float(exact + self._rng.normal(scale=spread))

    def _variance(self, state) -> float:
        h2 = self.hamiltonian * self.hamiltonian
        mean = self.hamiltonian.expectation(state)
        return max(0.0, h2.expectation(state) - mean**2)

    # -- the loop -------------------------------------------------------------
    def run(
        self,
        initial_parameters: Sequence[float] | None = None,
        callback: Callable[[int, np.ndarray, float], None] | None = None,
    ) -> VQEResult:
        num_params = len(self.ansatz.parameters)
        if initial_parameters is None:
            initial = self._rng.uniform(-0.1, 0.1, size=num_params)
        else:
            initial = np.asarray(list(initial_parameters), dtype=float)
            if initial.size != num_params:
                raise VQEError(
                    f"expected {num_params} initial parameters, got {initial.size}"
                )

        history: list[float] = []
        compile_seconds = 0.0
        pulse_durations: list[float] = []
        start = time.perf_counter()

        def objective(values: np.ndarray) -> float:
            nonlocal compile_seconds
            if self.compiler is not None:
                compiled = _compile_iteration(self.compiler, self.ansatz, values)
                compile_seconds += compiled.runtime_latency_s
                pulse_durations.append(compiled.pulse_duration_ns)
            value = self.energy(values)
            history.append(value)
            if callback is not None:
                callback(len(history), np.asarray(values), value)
            return value

        if self.optimizer == "nelder-mead":
            result = scipy_optimize.minimize(
                objective,
                initial,
                method="Nelder-Mead",
                options={"maxfev": self.max_iterations, "xatol": 1e-4, "fatol": 1e-7},
            )
            best_params, best_energy = result.x, float(result.fun)
        else:
            best_params, best_energy = self._spsa(objective, initial)

        exact = None
        if self.hamiltonian.num_qubits <= 12:
            exact = self.hamiltonian.ground_state_energy()
        compile_stats = None
        if self.compiler is not None and hasattr(self.compiler, "stats"):
            compile_stats = self.compiler.stats()
        return VQEResult(
            optimal_parameters=np.asarray(best_params),
            optimal_energy=best_energy,
            exact_energy=exact,
            iterations=len(history),
            energy_history=history,
            wall_time_s=time.perf_counter() - start,
            compile_latency_s=compile_seconds,
            compile_pulse_ns=pulse_durations,
            compile_stats=compile_stats,
        )

    def _spsa(self, objective, initial: np.ndarray) -> tuple:
        """Simultaneous Perturbation Stochastic Approximation."""
        params = initial.copy()
        best_params, best_value = params.copy(), float("inf")
        a, c, alpha, gamma = 0.2, 0.15, 0.602, 0.101
        budget = max(1, self.max_iterations // 2)
        for k in range(budget):
            ak = a / (k + 1) ** alpha
            ck = c / (k + 1) ** gamma
            delta = self._rng.choice([-1.0, 1.0], size=params.size)
            plus = objective(params + ck * delta)
            minus = objective(params - ck * delta)
            gradient = (plus - minus) / (2 * ck) * delta
            params = params - ak * gradient
            value = min(plus, minus)
            if value < best_value:
                best_value, best_params = value, params.copy()
        final = objective(best_params)
        if final < best_value:
            best_value = final
        return best_params, float(best_value)


def _compile_iteration(compiler, ansatz: QuantumCircuit, values: np.ndarray):
    """Dispatch one iteration's compilation across the compiler interfaces."""
    if hasattr(compiler, "compile_parametrized"):
        return compiler.compile_parametrized(ansatz, list(values))
    return compiler.compile(list(values))
