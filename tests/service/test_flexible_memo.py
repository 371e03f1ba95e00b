"""The service's GRAPE-run memo on the flexible-partial strategy.

A cached flexible request replays the θ-independent probe and tuning
GRAPE runs of earlier requests from ``service.grape_memo``; these tests
pin that the replay never changes a pulse, that only cached flexible
precompiles touch the memo, and that each report counts its own replays.
"""

from __future__ import annotations

import pytest

from repro.service import CompilationService, CompileRequest, ServiceConfig

OPTIONS = {"tuning_samples": 1, "learning_rates": (0.05,), "decay_rates": (0.002,)}
THETAS = [[0.4 + 0.01 * k, 0.9 - 0.02 * k] for k in range(10)]


@pytest.fixture
def make_service(coarse_settings, coarse_hyper):
    def build(**config):
        config.setdefault("executor", "serial")
        return CompilationService(
            ServiceConfig(**config), settings=coarse_settings, hyperparameters=coarse_hyper
        )

    return build


def flexible(circuit, theta, **kwargs):
    return CompileRequest(
        circuit,
        theta,
        strategy="flexible-partial",
        max_block_width=2,
        options=dict(OPTIONS),
        **kwargs,
    )


def memo_hits(result) -> int:
    return result.precompile_report.metadata["grape_memo_hits"]


def test_replayed_requests_match_fresh_services(workload, make_service, programs_identical):
    circuit, _ = workload
    with make_service() as service:
        results = [service.compile(flexible(circuit, theta)) for theta in THETAS]
        stats = service.stats()["grape_memo"]
    assert memo_hits(results[0]) == 0
    assert all(memo_hits(result) > 0 for result in results[1:])
    # The first request ran every probe and tuning run; the nine later
    # ones replayed all of them.
    assert stats["hits"] == sum(memo_hits(result) for result in results)
    assert stats["hits"] == 9 * stats["misses"] and stats["size"] == stats["misses"]
    for theta, result in zip(THETAS, results):
        with make_service() as fresh:
            alone = fresh.compile(flexible(circuit, theta))
        assert memo_hits(alone) == 0
        assert programs_identical(result.program, alone.program)
        assert result.compiled.runtime_iterations == alone.compiled.runtime_iterations


def test_uncached_requests_leave_the_memo_untouched(workload, make_service):
    circuit, theta = workload
    with make_service() as service:
        service.compile(flexible(circuit, theta))
        before = service.stats()["grape_memo"]
        result = service.compile(flexible(circuit, theta, use_cache=False))
        assert service.stats()["grape_memo"] == before
    assert memo_hits(result) == 0


@pytest.mark.parametrize("strategy", ["strict-partial", "full-grape"])
def test_other_strategies_leave_the_memo_untouched(workload, make_service, strategy):
    circuit, theta = workload
    with make_service() as service:
        service.compile(CompileRequest(circuit, theta, strategy=strategy, max_block_width=2))
        assert service.stats()["grape_memo"]["misses"] == 0
        assert service.stats()["grape_memo"]["size"] == 0


def test_each_report_counts_its_own_replays(workload, make_service):
    circuit, theta = workload
    with make_service(submit_workers=2) as service:
        cold = service.compile(flexible(circuit, theta))
        runs = service.stats()["grape_memo"]["misses"]
        futures = [service.submit(flexible(circuit, t)) for t in THETAS[1:3]]
        warm = [future.result() for future in futures]
        stats = service.stats()["grape_memo"]
    assert memo_hits(cold) == 0
    # Every probe and tuning run of a warm request is a replay, whichever
    # other request ran at the same time.
    assert [memo_hits(result) for result in warm] == [runs, runs]
    assert (stats["hits"], stats["misses"], stats["size"]) == (2 * runs, runs, runs)


def test_two_thread_submit_matches_serial_compile(workload, make_service, programs_identical):
    circuit, _ = workload
    thetas = THETAS[:4]
    with make_service() as serial_service:
        serial = [serial_service.compile(flexible(circuit, theta)) for theta in thetas]
    with make_service(submit_workers=2) as service:
        futures = [service.submit(flexible(circuit, theta)) for theta in thetas]
        concurrent = [future.result() for future in futures]
    for a, b in zip(serial, concurrent):
        assert programs_identical(a.program, b.program)
        assert a.compiled.runtime_iterations == b.compiled.runtime_iterations
