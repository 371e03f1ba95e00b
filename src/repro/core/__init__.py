"""Partial compilation — the paper's contribution.

Four compilers share one interface shape:

* :class:`GateBasedCompiler` — Table-1 lookup + concatenation (baseline).
* :class:`FullGrapeCompiler` — blocked minimum-time GRAPE (best pulses,
  untenable latency).
* :class:`StrictPartialCompiler` — GRAPE-precompiled Fixed blocks, lookup
  Rz(θ); zero runtime latency (section 6).
* :class:`FlexiblePartialCompiler` — single-θ slices, precomputed
  hyperparameters, short tuned GRAPE at runtime (section 7).

All four are thin strategy configurations of the shared
:class:`repro.pipeline.CompilationPipeline`; independent per-block GRAPE
searches dispatch through its pluggable block executor, and GRAPE results
land in a :class:`PulseCache` (optionally the on-disk
:class:`PersistentPulseCache` when a cache directory is configured).
"""

from repro.core.cache import (
    CACHE_SCHEMA_VERSION,
    PersistentPulseCache,
    PulseCache,
    unitary_fingerprint,
)
from repro.core.compiler import BlockPulseCompiler, default_device_for
from repro.core.flexible import FlexiblePartialCompiler
from repro.core.full_grape import FullGrapeCompiler
from repro.core.gate_based import GateBasedCompiler
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
    StepFunctionGateCompiler,
    StepFunctionTable,
    default_step_table,
)
from repro.core.strict import StrictPartialCompiler

__all__ = [
    "default_step_table",
    "StepFunctionTable",
    "StepFunctionGateCompiler",
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
    "FlexiblePartialCompiler",
    "FullGrapeCompiler",
    "GateBasedCompiler",
    "HyperparameterTrial",
    "LatencyComparison",
    "PersistentPulseCache",
    "PrecompileReport",
    "PulseCache",
    "StrictPartialCompiler",
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
