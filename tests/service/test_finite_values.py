"""A request's parameter values must be finite.

A NaN or infinite angle used to pass the front door: gate-based and
strict compilation returned an ordinary lookup program for it, and full
GRAPE failed deep in its linear algebra with an error the HTTP server
answered as a 500.  ``CompileRequest`` now rejects it, naming the
parameter, so every strategy and the wire decode refuse it the same way.
"""

import math

import pytest

from repro.errors import ReproError
from repro.service import CompilationService, CompileRequest, ServiceConfig

STRATEGIES = (
    "gate",
    "step-function",
    "full-grape",
    "strict-partial",
    "flexible-partial",
)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=str)
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_every_strategy_rejects_a_non_finite_value(
    workload, coarse_settings, coarse_hyper, strategy, bad
):
    circuit, theta = workload
    with CompilationService(
        config=ServiceConfig(executor="serial"),
        settings=coarse_settings,
        hyperparameters=coarse_hyper,
    ) as service:
        with pytest.raises(ReproError, match=r"parameter theta_1 .*finite"):
            service.compile(
                CompileRequest(
                    circuit, [theta[0], bad], strategy=strategy, max_block_width=2
                )
            )
        assert service.stats()["requests"]["total"] == 0


def test_a_mapping_names_its_parameter(workload):
    circuit, _ = workload
    first, second = circuit.parameters
    with pytest.raises(ReproError, match=r"parameter theta_0 .*finite"):
        CompileRequest(circuit, {first: math.nan, second: 0.2}, strategy="gate")


def test_finite_and_absent_values_pass(workload):
    circuit, theta = workload
    assert CompileRequest(circuit, theta, strategy="gate").values == theta
    assert CompileRequest(circuit, None, strategy="strict-partial").values is None
