"""A new service over the same ``cache_dir`` picks up earlier work.

The pulse library is the one store that outlives a service: a second
service opened over the directory a closed one wrote serves every block
from it, so it runs no GRAPE and returns the same programs byte for byte.
"""

from repro.perf import get_perf_registry
from repro.service import CompilationService, CompileRequest, ServiceConfig

STRATEGIES = ("full-grape", "strict-partial")


def _grape_iterations(result) -> int:
    """Every GRAPE iteration a request ran: its precompile and runtime."""
    report = result.precompile_report
    precompile = report.grape_iterations if report is not None else 0
    return precompile + result.compiled.runtime_iterations


def _compile_all(cache_dir, workload, settings, hyper) -> tuple:
    """Each strategy's result, and how many lookups the library served."""
    circuit, theta = workload
    config = ServiceConfig(executor="serial", cache_dir=str(cache_dir))
    with CompilationService(
        config=config, settings=settings, hyperparameters=hyper
    ) as service:
        results = {
            strategy: service.compile(
                CompileRequest(
                    circuit, theta, strategy=strategy, max_block_width=2
                )
            )
            for strategy in STRATEGIES
        }
        return results, service.stats()["cache"]["disk_hits"]


class TestRestartOverCacheDir:
    def test_second_service_runs_no_grape_and_matches(
        self, tmp_path, workload, coarse_settings, coarse_hyper,
        programs_identical,
    ):
        cache_dir = tmp_path / "library"
        first, _ = _compile_all(
            cache_dir, workload, coarse_settings, coarse_hyper
        )
        assert all(_grape_iterations(first[s]) > 0 for s in STRATEGIES)

        with get_perf_registry().counts_moved() as moved:
            second, disk_hits = _compile_all(
                cache_dir, workload, coarse_settings, coarse_hyper
            )
        assert disk_hits >= 1
        for strategy in STRATEGIES:
            assert _grape_iterations(second[strategy]) == 0, strategy
            assert programs_identical(
                first[strategy].program, second[strategy].program
            ), strategy
        # No block missed the library, so none looked for a warm start.
        assert moved.get("grape.warm_start.lookups", 0) == 0
