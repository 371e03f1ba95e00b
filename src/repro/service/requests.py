"""Typed request/response objects for the compilation service.

One :class:`CompileRequest` in, one :class:`CompileResult` out — whatever
the strategy.  The request carries everything a strategy may need (the
circuit, optional parameter values, GRAPE settings/hyperparameters, block
width, plus a free-form ``options`` dict for strategy-specific extras);
the result wraps the strategy's :class:`~repro.core.results.CompiledPulse`
together with its precompute report and, for the partial-compilation
strategies, the reusable precompiled plan.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.errors import ReproError


@dataclass(frozen=True)
class CompileRequest:
    """One unit of work for :meth:`CompilationService.compile`.

    Attributes
    ----------
    circuit:
        The (possibly parametrized) :class:`~repro.circuits.QuantumCircuit`.
    values:
        Parameter values to bind — a sequence in parameter-index order or a
        mapping.  A NaN or infinite value raises
        :class:`~repro.errors.ReproError` naming its parameter.  ``None``
        is allowed for bound circuits, and for the partial-compilation
        strategies it means *precompile only*: the
        result carries the reusable plan compiler but no pulse program.
    strategy:
        Registry key of the compilation strategy (``"gate"``,
        ``"full-grape"``, ``"strict-partial"``, ``"flexible-partial"``,
        ``"step-function"``, or any :func:`~repro.service.register_strategy`
        addition).
    settings / hyperparameters:
        Optional :class:`~repro.pulse.grape.GrapeSettings` /
        :class:`~repro.pulse.grape.GrapeHyperparameters` overrides; ``None``
        falls back to the service's defaults.
    max_block_width:
        Maximum GRAPE block width; ``None`` uses the blocking default.
    use_cache:
        Whether GRAPE results may be served from (and recorded into) the
        service's pulse cache.  Defaults on — the service exists to share
        work.  The paper's *uncached* full-GRAPE latency numbers need
        ``use_cache=False``.
    options:
        Strategy-specific extras (e.g. ``tuning_samples``,
        ``learning_rates``, ``tuning_strategy`` for flexible partial
        compilation; ``pass_manager`` for gate-based;
        ``table`` for step-function).  Unknown keys raise at compile time.
    """

    circuit: Any
    values: Sequence[float] | Mapping | None = None
    strategy: str = "full-grape"
    settings: Any = None
    hyperparameters: Any = None
    max_block_width: int | None = None
    use_cache: bool = True
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.circuit is None:
            raise ReproError("CompileRequest.circuit is required")
        if not isinstance(self.strategy, str) or not self.strategy:
            raise ReproError(
                f"CompileRequest.strategy must be a registry key, "
                f"got {self.strategy!r}"
            )
        self._check_finite()

    def _check_finite(self) -> None:
        """Reject a NaN or infinite value, naming its parameter: the one
        check for every strategy and the wire decode."""
        if self.values is None:
            return
        if isinstance(self.values, Mapping):
            pairs = self.values.items()
        else:
            pairs = zip(getattr(self.circuit, "parameters", ()), self.values)
        for param, value in pairs:
            if isinstance(value, numbers.Real) and not math.isfinite(value):
                raise ReproError(
                    f"parameter {getattr(param, 'name', param)} must have "
                    f"a finite value, got {value!r}"
                )

    def option(self, name: str, default=None):
        """One strategy-specific option, with a default."""
        return self.options.get(name, default)

    def normalized_values(self):
        """``values`` in the form the binding APIs take: a dict as-is, any
        other sequence materialized as a list, ``None`` untouched."""
        if self.values is None or isinstance(self.values, dict):
            return self.values
        return list(self.values)


@dataclass(frozen=True)
class CompileResult:
    """The service's response to one :class:`CompileRequest`.

    Attributes
    ----------
    request:
        The originating request (for correlation in concurrent use).
    strategy:
        The registry key that served it.
    compiled:
        The strategy's :class:`~repro.core.results.CompiledPulse`, or
        ``None`` for a precompile-only request (``values=None`` on a
        partial-compilation strategy).
    precompile_report:
        The :class:`~repro.core.results.PrecompileReport` for strategies
        with a precompute phase; ``None`` otherwise.
    compiler:
        The reusable plan compiler for the partial-compilation strategies
        (its ``compile(values)`` replays the plan at zero GRAPE precompute
        cost; also what :func:`repro.pulse.assembly_from_strict_plan`
        exports).  ``None`` for the stateless strategies.
    wall_time_s:
        End-to-end service-side wall time for this request, including any
        precompute phase.
    """

    request: CompileRequest
    strategy: str
    compiled: Any = None
    precompile_report: Any = None
    compiler: Any = None
    wall_time_s: float = 0.0

    # -- pass-throughs to the compiled pulse --------------------------------
    def _compiled(self):
        if self.compiled is None:
            raise ReproError(
                "this CompileResult is precompile-only (request.values was "
                "None); pass values to get a pulse program"
            )
        return self.compiled

    @property
    def program(self):
        return self._compiled().program

    @property
    def pulse_duration_ns(self) -> float:
        return self._compiled().pulse_duration_ns

    @property
    def runtime_latency_s(self) -> float:
        return self._compiled().runtime_latency_s

    @property
    def runtime_iterations(self) -> int:
        return self._compiled().runtime_iterations

    @property
    def metadata(self) -> dict:
        return self._compiled().metadata
