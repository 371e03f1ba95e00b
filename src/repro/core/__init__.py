"""Partial compilation — the paper's contribution.

The paper's four strategies are compiled here and served by
:class:`repro.service.CompilationService`, the one public way to compile:

* ``"gate"`` (:mod:`repro.core.gate_based`) — Table-1 lookup +
  concatenation (baseline).
* ``"full-grape"`` (:mod:`repro.core.full_grape`) — blocked minimum-time
  GRAPE (best pulses, untenable latency).
* ``"strict-partial"`` (:mod:`repro.core.strict`) — GRAPE-precompiled
  Fixed blocks, lookup Rz(θ); zero runtime latency (section 6).
* ``"flexible-partial"`` (:mod:`repro.core.flexible`) — single-θ slices,
  precomputed hyperparameters, short tuned GRAPE at runtime (section 7).

Each is a thin strategy configuration of the shared
:class:`repro.pipeline.CompilationPipeline`; fixed blocks compile through
one :class:`repro.pipeline.BlockScheduler` pass and the service's block
executor, and GRAPE results land in a :class:`PulseCache` (optionally the
on-disk :class:`PersistentPulseCache` when a cache directory is
configured).
"""

from repro.core.cache import (
    CACHE_SCHEMA_VERSION,
    PersistentPulseCache,
    PulseCache,
    unitary_fingerprint,
)
from repro.core.compiler import BlockPulseCompiler, default_device_for
from repro.core.search import (
    SearchSpace,
    random_search,
    rbf_search,
    successive_halving,
    tune_with_strategy,
)
from repro.core.hyperopt import (
    HyperparameterTrial,
    TuningResult,
    learning_rate_sweep,
    sample_targets,
    tune_hyperparameters,
)
from repro.core.monotonic import (
    is_parameter_grouped,
    is_parameter_monotonic,
    parameter_appearance_order,
    parametrized_gate_sequence,
)
from repro.core.results import CompiledPulse, LatencyComparison, PrecompileReport
from repro.core.slicing import (
    CircuitSlice,
    flexible_slices,
    parametrized_gate_fraction,
    strict_slices,
)
from repro.core.stepfunction import (
    AngleRange,
    StepFunctionTable,
    default_step_table,
)

__all__ = [
    "default_step_table",
    "StepFunctionTable",
    "AngleRange",
    "tune_with_strategy",
    "successive_halving",
    "rbf_search",
    "random_search",
    "SearchSpace",
    "BlockPulseCompiler",
    "CACHE_SCHEMA_VERSION",
    "CircuitSlice",
    "CompiledPulse",
    "HyperparameterTrial",
    "LatencyComparison",
    "PersistentPulseCache",
    "PrecompileReport",
    "PulseCache",
    "TuningResult",
    "default_device_for",
    "flexible_slices",
    "is_parameter_grouped",
    "is_parameter_monotonic",
    "learning_rate_sweep",
    "parameter_appearance_order",
    "parametrized_gate_fraction",
    "parametrized_gate_sequence",
    "sample_targets",
    "strict_slices",
    "tune_hyperparameters",
    "unitary_fingerprint",
]
