"""The string-keyed compilation-strategy registry.

The five paper strategies register here under stable names —
``"gate"``, ``"full-grape"``, ``"strict-partial"``, ``"flexible-partial"``,
``"step-function"`` — and third parties add their own with
:func:`register_strategy`.  :class:`~repro.service.facade.CompilationService`
resolves ``CompileRequest.strategy`` through this registry, so a new
strategy is reachable from every driver, the CLI, and any future network
frontend without touching them.

Built-ins materialize lazily (the strategy implementations import
:mod:`repro.core`, which must not load just because :mod:`repro.config`
imported the service config at startup).
"""

from __future__ import annotations

import importlib
import threading

from repro.errors import ReproError
from repro.service.requests import CompileRequest, CompileResult


class CompilationStrategy:
    """One registered way to turn a :class:`CompileRequest` into a
    :class:`CompileResult`.

    Subclasses implement :meth:`compile`; the ``service`` argument gives
    access to the shared machinery (pulse cache, block executor, scheduler
    state, default device/settings) so every strategy automatically
    benefits from cross-request reuse.
    """

    #: Registry key; subclasses must override.
    name = "abstract"

    def compile(self, service, request: CompileRequest) -> CompileResult:
        """Serve one request using ``service``'s shared machinery."""
        raise NotImplementedError

    def validate(self, request: CompileRequest) -> None:
        """Raise :class:`~repro.errors.ReproError` for a request this
        strategy cannot serve, before any work (the HTTP frontend turns
        it into 400).  Accepts everything by default."""

    def describe(self) -> dict:
        """Telemetry fragment identifying this strategy."""
        return {"strategy": self.name, "class": type(self).__qualname__}


#: Lazily materialized built-in strategies: name -> (module, class name).
_BUILTIN_SPECS = {
    "gate": ("repro.service.strategies", "GateStrategy"),
    "full-grape": ("repro.service.strategies", "FullGrapeStrategy"),
    "strict-partial": ("repro.service.strategies", "StrictPartialStrategy"),
    "flexible-partial": ("repro.service.strategies", "FlexiblePartialStrategy"),
    "step-function": ("repro.service.strategies", "StepFunctionStrategy"),
}

_registry: dict = {}
_registry_lock = threading.Lock()


def register_strategy(strategy, name: str | None = None) -> None:
    """Register ``strategy`` (an instance or zero-arg class) under ``name``.

    ``name`` defaults to the strategy's own ``name`` attribute.
    Re-registering a key replaces it — including the built-ins, which is
    how a deployment swaps in a tuned variant behind the same request
    surface.
    """
    if isinstance(strategy, type):
        strategy = strategy()
    key = name or getattr(strategy, "name", None)
    if not key or key == "abstract":
        raise ReproError(
            f"strategy {strategy!r} needs a name (set .name or pass name=)"
        )
    if not callable(getattr(strategy, "compile", None)):
        raise ReproError(f"{strategy!r} has no compile(service, request) method")
    with _registry_lock:
        _registry[key] = strategy


def unregister_strategy(name: str) -> None:
    """Remove a registered strategy (built-ins re-materialize on demand)."""
    with _registry_lock:
        _registry.pop(name, None)


def get_strategy(name: str) -> CompilationStrategy:
    """Resolve ``name`` to its registered strategy, materializing built-ins."""
    with _registry_lock:
        strategy = _registry.get(name)
    if strategy is not None:
        return strategy
    spec = _BUILTIN_SPECS.get(name)
    if spec is None:
        raise ReproError(
            f"unknown compilation strategy {name!r}; "
            f"available: {available_strategies()}"
        )
    module_name, class_name = spec
    strategy = getattr(importlib.import_module(module_name), class_name)()
    with _registry_lock:
        # A concurrent materialization (or an explicit registration that
        # raced us) wins: first write stays.
        strategy = _registry.setdefault(name, strategy)
    return strategy


def available_strategies() -> tuple:
    """Sorted names of every reachable strategy (built-in or registered)."""
    with _registry_lock:
        names = set(_registry)
    return tuple(sorted(names | set(_BUILTIN_SPECS)))
