"""The five built-in compilation strategies behind the service registry.

Each strategy adapts one of the paper's compilation modes to the service's
request/response surface while sharing the service's machinery — one pulse
cache, one block executor, one cross-call scheduler state — so repeated
requests reuse each other's work regardless of which thread submitted
them.  The heavy lifting stays in :mod:`repro.core`: the strategy classes
here wrap its compilers (``_GateBasedCompiler``,
``_StepFunctionGateCompiler``, ``_StrictPartialCompiler``,
``_FlexiblePartialCompiler``) and the full-GRAPE pipeline, and every
pipeline with a pulse stage compiles its fixed blocks through one
:class:`~repro.pipeline.scheduler.BlockScheduler` pass.
"""

from __future__ import annotations

import math
import numbers
import time

from repro.errors import ReproError
from repro.service.registry import CompilationStrategy
from repro.service.requests import CompileRequest, CompileResult


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_rate_grid(grid, positive: bool) -> bool:
    """``grid`` is a list or tuple of finite rates, each > 0 when
    ``positive``, else >= 0."""
    return isinstance(grid, (list, tuple)) and all(
        isinstance(rate, numbers.Real)
        and not isinstance(rate, bool)
        and math.isfinite(rate)
        and (rate > 0 if positive else rate >= 0)
        for rate in grid
    )


class _StrategyBase(CompilationStrategy):
    """Shared option validation + result assembly."""

    #: Option keys this strategy understands (unknown keys raise).
    allowed_options: frozenset = frozenset()

    def validate(self, request: CompileRequest) -> None:
        unknown = set(request.options) - set(self.allowed_options)
        if unknown:
            raise ReproError(
                f"strategy {self.name!r} does not understand options "
                f"{sorted(unknown)}; allowed: {sorted(self.allowed_options)}"
            )

    def compile(self, service, request: CompileRequest) -> CompileResult:
        self.validate(request)
        start = time.perf_counter()
        compiled, report, compiler = self._run(service, request)
        return CompileResult(
            request=request,
            strategy=self.name,
            compiled=compiled,
            precompile_report=report,
            compiler=compiler,
            wall_time_s=time.perf_counter() - start,
        )

    def _run(self, service, request: CompileRequest) -> tuple:
        """Return ``(compiled_pulse, precompile_report, plan_compiler)``."""
        raise NotImplementedError


class GateStrategy(_StrategyBase):
    """Table-1 lookup + concatenation — the paper's baseline."""

    name = "gate"
    allowed_options = frozenset({"pass_manager"})

    def _run(self, service, request):
        from repro.core.gate_based import _GateBasedCompiler

        impl = _GateBasedCompiler(request.option("pass_manager"))
        if request.values is None:
            return impl.compile(request.circuit), None, None
        return impl.compile_parametrized(request.circuit, request.values), None, None


class StepFunctionStrategy(_StrategyBase):
    """Angle-dependent lookup-table compilation (Barends-style ranges)."""

    name = "step-function"
    allowed_options = frozenset({"table"})

    def _run(self, service, request):
        from repro.core.stepfunction import _StepFunctionGateCompiler

        impl = _StepFunctionGateCompiler(request.option("table"))
        if request.values is None:
            return impl.compile_bound(request.circuit), None, None
        return (
            impl.compile_parametrized(request.circuit, request.values),
            None,
            None,
        )


class FullGrapeStrategy(_StrategyBase):
    """Blocked minimum-time GRAPE over the whole bound circuit.

    Runs through the service's shared scheduler state (when the request
    allows caching), so a stream of requests — from one thread or many —
    dispatches GRAPE only for blocks the whole service lifetime has never
    seen.  A single request is the batch of one.
    """

    name = "full-grape"
    allowed_options = frozenset()

    def _run(self, service, request):
        compiled, _ = self._compile_many(service, [request], batch=False)
        return compiled[0], None, None

    def compile_batch(self, service, requests) -> list:
        """Serve a uniform batch through one scheduler pass.

        Blocks shared between the batch's circuits compile once even on a
        cold cache; every result's ``runtime_latency_s`` is the shared
        batch wall time (also in ``metadata["batch_wall_time_s"]``) — do
        not sum it across the batch.
        """
        first = requests[0]
        for request in requests:
            self.validate(request)
            if (
                request.settings != first.settings
                or request.hyperparameters != first.hyperparameters
                or request.max_block_width != first.max_block_width
                or request.use_cache != first.use_cache
            ):
                raise ReproError(
                    "compile_batch needs uniform settings/hyperparameters/"
                    "max_block_width/use_cache across the batch; mix "
                    "strategies or options via individual compile() calls"
                )
        compiled, elapsed = self._compile_many(service, requests, batch=True)
        return [
            CompileResult(
                request=request,
                strategy=self.name,
                compiled=pulse,
                wall_time_s=elapsed,
            )
            for request, pulse in zip(requests, compiled)
        ]

    def _compile_many(self, service, requests, batch: bool) -> tuple:
        """Compile uniform ``requests`` in one scheduler pass; returns
        ``(compiled_pulses, wall_time_s)``."""
        from repro.core.cache import PulseCache
        from repro.core.compiler import BlockPulseCompiler
        from repro.core.full_grape import result_from_context
        from repro.pipeline.strategies import full_grape_pipeline

        first = requests[0]
        # The *symbolic* circuits go into the pipeline (the bind stage
        # applies the values): the plan cache keys blocking output on the
        # ansatz's content fingerprint, so every binding of one ansatz
        # replays one plan.
        circuits = [request.circuit for request in requests]
        values = [
            request.normalized_values() if request.values is not None else None
            for request in requests
        ]
        widest = max(circuits, key=lambda c: c.num_qubits)
        cache = service.cache if first.use_cache else PulseCache()
        block_compiler = BlockPulseCompiler(
            service.device_for(widest),
            first.settings or service.settings,
            first.hyperparameters or service.hyperparameters,
            cache,
            warm_start=service.config.warm_start,
        )
        pipeline = full_grape_pipeline(
            block_compiler, first.max_block_width, service.executor
        )
        # An uncached request must pay the honest out-of-the-box latency,
        # so it also skips the cross-call dedup memory and the plan cache.
        state = service.scheduler_state if first.use_cache else None
        plan_cache = service.plan_cache if first.use_cache else None
        start = time.perf_counter()
        contexts, report = pipeline.run_many(
            circuits,
            values,
            state=state,
            plan_cache=plan_cache,
            plan_scope=self.name,
            grape_batch=service.config.grape_batch,
            grape_batch_size=service.config.grape_batch_size,
        )
        elapsed = time.perf_counter() - start
        extra = {"scheduler": report.as_dict() if report is not None else None}
        if batch:
            extra["batch_wall_time_s"] = elapsed
        extra["service"] = True
        # One counters snapshot shared by every result of the batch.
        cache_stats = cache.stats()
        compiled = [
            result_from_context("grape", context, elapsed, cache, extra, cache_stats)
            for context in contexts
        ]
        return compiled, elapsed


class _PartialStrategyBase(_StrategyBase):
    """Shared flow for the precompile-then-replay strategies."""

    def _precompile(self, service, request):
        """Return the plan compiler built over the service's machinery."""
        raise NotImplementedError

    def _run(self, service, request):
        compiler = self._precompile(service, request)
        compiled = None
        if request.values is not None:
            compiled = compiler.compile(request.normalized_values())
        return compiled, compiler.report, compiler


class StrictPartialStrategy(_PartialStrategyBase):
    """GRAPE-precompiled Fixed blocks + lookup ``Rz(θ)`` at runtime.

    Precompilation flows through the service's scheduler state, so the
    Fixed blocks of an ansatz the service has seen before cost zero GRAPE
    dispatches.  Each request still runs the (GRAPE-free) blocking pass
    and a scheduler lookup per Fixed block; re-keying a block the service
    has already fingerprinted is a memo hit on the service cache (see
    DESIGN.md "Block identity").  Callers replaying one ansatz thousands
    of times can precompile once (``values=None``) and reuse
    ``result.compiler.compile(values)`` directly.
    """

    name = "strict-partial"
    allowed_options = frozenset()

    def _precompile(self, service, request):
        from repro.core.cache import PulseCache
        from repro.core.strict import _StrictPartialCompiler

        return _StrictPartialCompiler.precompile_many(
            [request.circuit],
            device=service.device_for(request.circuit),
            settings=request.settings or service.settings,
            hyperparameters=request.hyperparameters or service.hyperparameters,
            max_block_width=request.max_block_width,
            cache=service.cache if request.use_cache else PulseCache(),
            executor=service.executor,
            state=service.scheduler_state if request.use_cache else None,
            config=service.config,
        )[0]


class FlexiblePartialStrategy(_PartialStrategyBase):
    """Single-θ slices with tuned warm-started GRAPE at runtime.

    Each request precompiles its ansatz: Fixed blocks through the
    service's scheduler state (as in strict-partial), and for every
    single-θ block a minimum-time probe plus hyperparameter tuning.  Those
    probe and tuning runs depend on the ansatz and the options but not on
    θ, so a cached request runs them through the service's
    :class:`~repro.pulse.grape.memo.GrapeRunMemo`: the first request of an
    ansatz runs them, later ones replay them bit for bit, and
    ``precompile_report.metadata["grape_memo_hits"]`` counts the replays
    of this request.  The per-θ runtime GRAPE never goes through the
    memo, and neither does an uncached request (``use_cache=False``).
    Options are checked in :meth:`validate`, before any work.
    """

    name = "flexible-partial"
    allowed_options = frozenset(
        {
            "tuning_samples",
            "learning_rates",
            "decay_rates",
            "seed",
            "tuning_strategy",
        }
    )

    def validate(self, request: CompileRequest) -> None:
        """Check the options the request sets; an absent option takes the
        default of :meth:`_FlexiblePartialCompiler.precompile_many
        <repro.core.flexible._FlexiblePartialCompiler.precompile_many>`."""
        from repro.core.flexible import check_tuning_samples
        from repro.core.search import STRATEGIES

        super().validate(request)
        options = request.options
        if "tuning_samples" in options:
            check_tuning_samples(options["tuning_samples"])
        if "seed" in options and not _is_int(options["seed"]):
            raise ReproError(
                f"option 'seed' must be an integer, got {options['seed']!r}"
            )
        for name, positive in (("learning_rates", True), ("decay_rates", False)):
            grid = options.get(name)
            if grid is not None and not _is_rate_grid(grid, positive):
                raise ReproError(
                    f"option {name!r} must be a list of finite "
                    f"{'positive' if positive else 'non-negative'} numbers, "
                    f"got {grid!r}"
                )
        tuners = sorted([*STRATEGIES, "grid"])
        if "tuning_strategy" in options and options["tuning_strategy"] not in tuners:
            raise ReproError(
                f"option 'tuning_strategy' must be one of {tuners}, "
                f"got {options['tuning_strategy']!r}"
            )

    def _precompile(self, service, request):
        from repro.core.cache import PulseCache
        from repro.core.flexible import _FlexiblePartialCompiler

        return _FlexiblePartialCompiler.precompile_many(
            [request.circuit],
            device=service.device_for(request.circuit),
            settings=request.settings or service.settings,
            hyperparameters=request.hyperparameters or service.hyperparameters,
            max_block_width=request.max_block_width,
            cache=service.cache if request.use_cache else PulseCache(),
            executor=service.executor,
            state=service.scheduler_state if request.use_cache else None,
            grape_memo=service.grape_memo if request.use_cache else None,
            config=service.config,
            **request.options,
        )[0]
