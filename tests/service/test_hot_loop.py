"""The hot variational loop through the service front door.

Tentpole acceptance: compiling one ansatz at many parametrizations runs
the blocking pass exactly once — iterations ≥2 replay the cached
:class:`~repro.pipeline.plan.CompilationPlan` and jump straight to
scheduler dispatch, visible in ``stats()["plan_cache"]`` and in each
result's ``metadata["plan_cache"]`` marker.
"""

import pytest

from repro.service import CompilationService, CompileRequest


THETAS = [[0.4, 0.9], [0.1, 1.2], [0.7, 0.3]]


@pytest.fixture()
def loop_results(workload, coarse_settings, coarse_hyper):
    circuit, _ = workload
    with CompilationService(
        settings=coarse_settings, hyperparameters=coarse_hyper
    ) as service:
        results = [
            service.compile(
                CompileRequest(
                    circuit, theta, strategy="full-grape", max_block_width=2
                )
            )
            for theta in THETAS
        ]
        stats = service.stats()
    return results, stats


def test_blocking_runs_once_per_ansatz(loop_results):
    _, stats = loop_results
    plan = stats["plan_cache"]
    assert plan["plan_misses"] == 1
    assert plan["plan_hits"] == len(THETAS) - 1
    assert plan["entries"] == 1


def test_results_carry_plan_markers(loop_results):
    results, _ = loop_results
    assert results[0].metadata["plan_cache"] == "miss"
    for result in results[1:]:
        assert result.metadata["plan_cache"] == "hit"


def test_replayed_iterations_still_compile(loop_results):
    """A plan hit skips blocking, not compilation: every iteration still
    produces a full program with the same block structure."""
    results, _ = loop_results
    blocks = {result.metadata["blocks"] for result in results}
    assert len(blocks) == 1
    reference = results[0].compiled.blocks_compiled
    for result in results:
        assert result.program.duration_ns > 0
        assert result.compiled.blocks_compiled == reference


def test_cache_off_bypasses_plans(workload, coarse_settings, coarse_hyper):
    """``use_cache=False`` requests measure the honest cold path — they
    must not read or populate the service plan cache."""
    circuit, _ = workload
    with CompilationService(
        settings=coarse_settings, hyperparameters=coarse_hyper
    ) as service:
        for theta in THETAS[:2]:
            service.compile(
                CompileRequest(
                    circuit,
                    theta,
                    strategy="full-grape",
                    max_block_width=2,
                    use_cache=False,
                )
            )
        plan = service.stats()["plan_cache"]
    assert plan == {
        "entries": 0,
        "plan_hits": 0,
        "plan_misses": 0,
        "evictions": 0,
    }
