"""The compilation service — one typed front door for every caller.

The paper frames partial compilation as a *service* a variational outer
loop calls thousands of times.  This package is that service:

* :mod:`repro.service.config` — :class:`ServiceConfig`, the typed,
  immutable consolidation of every ``REPRO_*`` environment knob; its
  module is the only env reader in the package.
* :mod:`repro.service.requests` — :class:`CompileRequest` /
  :class:`CompileResult`, the typed request/response objects.
* :mod:`repro.service.registry` — the string-keyed strategy registry
  (``"gate"``, ``"full-grape"``, ``"strict-partial"``,
  ``"flexible-partial"``, ``"step-function"``) plus
  :func:`register_strategy` for third-party strategies.
* :mod:`repro.service.facade` — :class:`CompilationService`, the single
  supported way to compile: one persistent block executor, one open pulse
  library, one cross-call scheduler state, shared by every ``compile`` /
  ``submit`` from any number of threads.

This ``__init__`` imports lazily (PEP 562): :mod:`repro.config` depends on
:mod:`repro.service.config` at import time, so pulling the facade (which
imports :mod:`repro.core`) in eagerly would create an import cycle.
"""

from repro.service.config import (
    CACHE_SHARD_CHOICES,
    EXECUTOR_CHOICES,
    ServiceConfig,
)

__all__ = [
    "CACHE_SHARD_CHOICES",
    "CompilationService",
    "CompilationStrategy",
    "CompileRequest",
    "CompileResult",
    "EXECUTOR_CHOICES",
    "ServiceConfig",
    "available_strategies",
    "get_strategy",
    "register_strategy",
    "unregister_strategy",
]

_LAZY = {
    "CompilationService": "repro.service.facade",
    "CompileRequest": "repro.service.requests",
    "CompileResult": "repro.service.requests",
    "CompilationStrategy": "repro.service.registry",
    "available_strategies": "repro.service.registry",
    "get_strategy": "repro.service.registry",
    "register_strategy": "repro.service.registry",
    "unregister_strategy": "repro.service.registry",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.service' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__() -> list:
    return sorted(set(globals()) | set(_LAZY))
