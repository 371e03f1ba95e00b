"""CompilationService facade: strategy parity, registry, lifecycle."""

import pytest

from repro.core import PulseCache
from repro.errors import CompilationError, PipelineError, ReproError
from repro.pulse.grape.engine import GrapeHyperparameters, GrapeSettings
from repro.service import (
    CompilationService,
    CompilationStrategy,
    CompileRequest,
    CompileResult,
    ServiceConfig,
    available_strategies,
    get_strategy,
    register_strategy,
    unregister_strategy,
)


class TestStrategyParity:
    """All five strategies are reachable through ``service.compile``, with
    results bit-identical to the core compilers run directly."""

    def test_all_five_registered(self):
        assert set(available_strategies()) >= {
            "gate",
            "step-function",
            "full-grape",
            "strict-partial",
            "flexible-partial",
        }

    def _service(self, settings, hyper):
        return CompilationService(settings=settings, hyperparameters=hyper)

    def test_gate_matches_core(self, workload, programs_identical):
        from repro.core.gate_based import _GateBasedCompiler

        circuit, theta = workload
        direct = _GateBasedCompiler().compile_parametrized(circuit, theta)
        with CompilationService() as service:
            result = service.compile(
                CompileRequest(circuit, theta, strategy="gate")
            )
        assert programs_identical(direct.program, result.program)

    def test_step_function_matches_core(self, workload, programs_identical):
        from repro.core.stepfunction import _StepFunctionGateCompiler

        circuit, theta = workload
        direct = _StepFunctionGateCompiler().compile_parametrized(circuit, theta)
        with CompilationService() as service:
            result = service.compile(
                CompileRequest(circuit, theta, strategy="step-function")
            )
        assert programs_identical(direct.program, result.program)

    def test_full_grape_single_request_matches_batch_of_one(
        self, workload, coarse_settings, coarse_hyper, programs_identical
    ):
        """``compile`` is the one-request case of ``compile_batch``: same
        pulses, and the same metadata keys except the batch wall time."""
        circuit, theta = workload
        request = CompileRequest(
            circuit, theta, strategy="full-grape", max_block_width=2
        )
        with self._service(coarse_settings, coarse_hyper) as service:
            single = service.compile(request)
        with self._service(coarse_settings, coarse_hyper) as service:
            (batched,) = service.compile_batch([request])
        assert programs_identical(single.program, batched.program)
        assert single.compiled.method == batched.compiled.method == "grape"
        assert single.compiled.runtime_iterations == (
            batched.compiled.runtime_iterations
        )
        assert set(batched.metadata) - set(single.metadata) == {
            "batch_wall_time_s"
        }
        assert single.metadata["service"] is True

    def test_strict_partial_matches_core(
        self, workload, coarse_settings, coarse_hyper, programs_identical
    ):
        from repro.core.strict import _StrictPartialCompiler

        circuit, theta = workload
        (compiler,) = _StrictPartialCompiler.precompile_many(
            [circuit],
            settings=coarse_settings,
            hyperparameters=coarse_hyper,
            max_block_width=2,
            cache=PulseCache(),
        )
        direct = compiler.compile(theta)
        with self._service(coarse_settings, coarse_hyper) as service:
            result = service.compile(
                CompileRequest(
                    circuit, theta, strategy="strict-partial", max_block_width=2
                )
            )
        assert programs_identical(direct.program, result.program)
        assert result.precompile_report is not None
        assert result.compiler is not None

    def test_flexible_partial_matches_core(
        self, workload, coarse_settings, coarse_hyper, programs_identical
    ):
        from repro.core.flexible import _FlexiblePartialCompiler

        circuit, theta = workload
        (compiler,) = _FlexiblePartialCompiler.precompile_many(
            [circuit],
            settings=coarse_settings,
            hyperparameters=coarse_hyper,
            max_block_width=2,
            cache=PulseCache(),
            tuning_samples=1,
        )
        direct = compiler.compile(theta)
        with self._service(coarse_settings, coarse_hyper) as service:
            result = service.compile(
                CompileRequest(
                    circuit,
                    theta,
                    strategy="flexible-partial",
                    max_block_width=2,
                    options={"tuning_samples": 1},
                )
            )
        assert programs_identical(direct.program, result.program)


class TestRequestSurface:
    def test_precompile_only_request(self, workload, coarse_settings, coarse_hyper):
        circuit, _theta = workload
        with CompilationService(
            settings=coarse_settings, hyperparameters=coarse_hyper
        ) as service:
            result = service.compile(
                CompileRequest(circuit, strategy="strict-partial", max_block_width=2)
            )
        assert result.compiled is None
        assert result.compiler is not None
        replay = result.compiler.compile([0.1, 0.2])
        assert replay.runtime_iterations == 0
        with pytest.raises(ReproError):
            _ = result.pulse_duration_ns

    @pytest.mark.parametrize(
        "strategy, options",
        [
            ("strict-partial", {}),
            ("flexible-partial", {"tuning_samples": 1}),
        ],
    )
    @pytest.mark.parametrize("extra", [-1, 3])
    def test_partial_runtimes_reject_wrong_value_counts(
        self, workload, coarse_settings, coarse_hyper, strategy, options, extra
    ):
        """A value sequence must bind every parameter exactly once: the
        partial runtimes refuse one too long or too short, as full-grape
        and gate do, instead of truncating it."""
        circuit, theta = workload
        values = list(theta) + [0.5] * extra if extra > 0 else theta[:extra]
        with CompilationService(
            settings=coarse_settings, hyperparameters=coarse_hyper
        ) as service:
            with pytest.raises(CompilationError) as excinfo:
                service.compile(
                    CompileRequest(
                        circuit,
                        values,
                        strategy=strategy,
                        max_block_width=2,
                        options=options,
                    )
                )
        message = str(excinfo.value)
        assert f"{len(theta)} parameters" in message
        assert f"{len(values)} values" in message

    def test_unknown_strategy_rejected(self, workload):
        circuit, theta = workload
        with CompilationService() as service:
            with pytest.raises(ReproError, match="unknown compilation strategy"):
                service.compile(CompileRequest(circuit, theta, strategy="qiskit"))

    def test_unknown_option_rejected(self, workload):
        circuit, theta = workload
        with CompilationService() as service:
            with pytest.raises(ReproError, match="does not understand options"):
                service.compile(
                    CompileRequest(
                        circuit, theta, strategy="gate", options={"turbo": True}
                    )
                )

    @pytest.mark.parametrize(
        "options",
        [
            {"tuning_samples": 0},
            {"tuning_samples": -2},
            {"tuning_samples": 1.5},
            {"learning_rates": (0.05, -0.1)},
            {"decay_rates": (float("nan"),)},
            {"tuning_strategy": "annealing"},
            {"seed": "eleven"},
        ],
    )
    def test_bad_flexible_options_rejected_before_work(self, workload, options):
        circuit, theta = workload
        request = CompileRequest(
            circuit, theta, strategy="flexible-partial", options=options
        )
        with CompilationService() as service:
            with pytest.raises(ReproError, match=next(iter(options))):
                service.compile(request)
            with pytest.raises(ReproError, match=next(iter(options))):
                service.submit(request).result()
            assert service.stats()["grape_memo"]["misses"] == 0
            assert service.stats()["cache"]["misses"] == 0

    def test_probe_executor_option_rejected_by_validate(self, workload):
        """The speculative time-search option is gone with its executor."""
        from repro.service import get_strategy

        circuit, theta = workload
        request = CompileRequest(
            circuit,
            theta,
            strategy="flexible-partial",
            options={"probe_executor": "serial"},
        )
        with pytest.raises(ReproError, match="probe_executor"):
            get_strategy("flexible-partial").validate(request)

    def test_compile_batch_compares_settings_by_value(
        self, workload, coarse_settings, coarse_hyper, programs_identical
    ):
        circuit, theta = workload
        requests = [
            CompileRequest(
                circuit,
                values,
                strategy="full-grape",
                settings=GrapeSettings(dt_ns=0.5, target_fidelity=0.95),
                hyperparameters=GrapeHyperparameters(
                    learning_rate=0.05, decay_rate=0.002, max_iterations=80
                ),
                max_block_width=2,
            )
            for values in (theta, [0.2, 0.7])
        ]
        assert requests[0].settings is not requests[1].settings
        with CompilationService(ServiceConfig(warm_start=False)) as service:
            batch = service.compile_batch(requests)
        with CompilationService(ServiceConfig(warm_start=False)) as service:
            alone = [service.compile(request) for request in requests]
        for a, b in zip(batch, alone):
            assert programs_identical(a.program, b.program)

    def test_compile_batch_still_refuses_mixed_settings(self, workload, coarse_settings):
        circuit, theta = workload
        requests = [
            CompileRequest(circuit, theta, strategy="full-grape", settings=settings)
            for settings in (coarse_settings, GrapeSettings(dt_ns=0.25))
        ]
        with CompilationService() as service:
            with pytest.raises(ReproError, match="uniform settings"):
                service.compile_batch(requests)

    def test_request_requires_circuit_and_strategy(self):
        with pytest.raises(ReproError):
            CompileRequest(None)
        with pytest.raises(ReproError):
            CompileRequest(object(), strategy="")

    def test_compile_rejects_non_requests(self, workload):
        circuit, theta = workload
        with CompilationService() as service:
            with pytest.raises(ReproError):
                service.compile(circuit)


class TestRegistry:
    def test_register_third_party_strategy(self, workload):
        circuit, theta = workload

        class EchoStrategy(CompilationStrategy):
            name = "echo"

            def compile(self, service, request):
                return CompileResult(request=request, strategy=self.name)

        register_strategy(EchoStrategy)
        try:
            assert "echo" in available_strategies()
            with CompilationService() as service:
                result = service.compile(
                    CompileRequest(circuit, theta, strategy="echo")
                )
            assert result.strategy == "echo"
        finally:
            unregister_strategy("echo")
        assert "echo" not in available_strategies()

    def test_register_rejects_nameless_or_uncallable(self):
        with pytest.raises(ReproError):
            register_strategy(object())
        class NoCompile:
            name = "broken"
        with pytest.raises(ReproError):
            register_strategy(NoCompile())

    def test_get_strategy_materializes_builtins(self):
        assert get_strategy("gate").name == "gate"


class TestLifecycle:
    def test_stats_fold_everything(self, workload):
        circuit, theta = workload
        with CompilationService() as service:
            service.compile(CompileRequest(circuit, theta, strategy="gate"))
            stats = service.stats()
        assert stats["requests"]["total"] == 1
        assert stats["requests"]["by_strategy"] == {"gate": 1}
        assert "cache" in stats and "hits" in stats["cache"]
        assert stats["grape_memo"] == {
            "hits": 0,
            "misses": 0,
            "size": 0,
            "max_entries": service.grape_memo.max_entries,
        }
        assert "executor" in stats
        assert stats["config"]["executor"] == service.config.executor

    def test_compile_after_close_raises(self, workload):
        circuit, theta = workload
        service = CompilationService()
        service.close()
        with pytest.raises(PipelineError):
            service.compile(CompileRequest(circuit, theta, strategy="gate"))
        with pytest.raises(PipelineError):
            service.submit(CompileRequest(circuit, theta, strategy="gate"))

    def test_close_idempotent(self):
        service = CompilationService()
        service.close()
        service.close()

    def test_close_drains_pending_submissions(self, workload):
        """A future accepted before close() completes instead of erroring."""
        circuit, theta = workload
        service = CompilationService()
        futures = [
            service.submit(CompileRequest(circuit, theta, strategy="gate"))
            for _ in range(6)
        ]
        service.close()
        results = [future.result(timeout=120) for future in futures]
        assert all(result.pulse_duration_ns > 0 for result in results)
        with pytest.raises(PipelineError):
            service.submit(CompileRequest(circuit, theta, strategy="gate"))

    def test_driver_hook_signature(self, workload):
        circuit, theta = workload
        with CompilationService(default_strategy="gate") as service:
            compiled = service.compile_parametrized(circuit, theta)
        assert compiled.method == "gate"
        assert compiled.pulse_duration_ns > 0
