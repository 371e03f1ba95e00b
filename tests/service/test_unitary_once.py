"""A cold block's target unitary is built once per ``full-grape`` request.

The scheduler keys each θ-dependent block by its unitary's fingerprint;
the matrix it builds travels with the task to the compile route
(``compile_blocks_batched`` on ``serial`` / ``auto``, ``make_job`` on the
job route), which must not build it again.
"""

import pytest

from repro.core import cache as cache_module
from repro.core import compiler as compiler_module
from repro.perf import get_perf_registry
from repro.service import CompilationService, CompileRequest, ServiceConfig

#: Near-miss θ steps: every request after the first has new θ-dependent
#: blocks, which miss the cache and warm-start.
THETAS = [[0.4 + 0.03 * k, 0.9 - 0.02 * k] for k in range(4)]


@pytest.fixture
def unitary_calls(monkeypatch):
    """Count every ``circuit_unitary`` call the cache and compiler make."""
    calls = []
    for module in (cache_module, compiler_module):
        original = module.circuit_unitary

        def counting(circuit, _original=original):
            calls.append(circuit)
            return _original(circuit)

        monkeypatch.setattr(module, "circuit_unitary", counting)
    return calls


@pytest.mark.parametrize("grape_batch", [True, False])
def test_one_unitary_per_cold_block(
    workload, coarse_settings, coarse_hyper, unitary_calls, grape_batch
):
    """``grape_batch=False`` sends fixed blocks down the job route."""
    circuit, _ = workload
    perf = get_perf_registry()
    config = ServiceConfig(executor="serial", grape_batch=grape_batch)
    with CompilationService(config) as service:
        for theta in THETAS:
            before = len(unitary_calls)
            lookups = perf.counter("grape.warm_start.lookups")
            service.compile(
                CompileRequest(
                    circuit,
                    theta,
                    strategy="full-grape",
                    settings=coarse_settings,
                    hyperparameters=coarse_hyper,
                    max_block_width=2,
                )
            )
            cold = perf.counter("grape.warm_start.lookups") - lookups
            assert cold > 0
            assert len(unitary_calls) - before == cold
