"""The service path raises no deprecation warning of any kind."""

import warnings

import pytest

from repro.service import CompilationService, CompileRequest


class TestServicePathIsWarningFree:
    """Compiling through the facade must not rely on deprecated behavior."""

    @pytest.mark.parametrize(
        "strategy", ["gate", "step-function", "strict-partial"]
    )
    def test_service_compile_emits_no_deprecation(
        self, strategy, workload, coarse_settings, coarse_hyper
    ):
        circuit, theta = workload
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            with CompilationService(
                settings=coarse_settings, hyperparameters=coarse_hyper
            ) as service:
                result = service.compile(
                    CompileRequest(
                        circuit, theta, strategy=strategy, max_block_width=2
                    )
                )
        assert result.pulse_duration_ns > 0
