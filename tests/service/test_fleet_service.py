"""CompilationService on the fleet: queue dispatch parity and admission.

The milestone-1 service-level contracts:

* every strategy compiled through ``dispatcher="queue"`` with real worker
  processes (``python -m repro worker``) is bit-identical to the serial in-process executor, with
  warm start off and on: the service resolves cache hits and warm-start
  seeds itself and ships seed-carrying searches, so a request sequence
  whose later requests seed from earlier pulses matches serial too;
* the ``repro.perf`` counts a worker's searches move come home to the
  dispatching process, and the pulses land in the service's library;
* ``queue_depth`` bounds admission — extra ``submit()`` calls block and
  are counted — without losing or erroring any request;
* the fleet directory falls back to ``<cache_dir>/fleet``, and a queue
  dispatcher without either knob is a configuration error.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.errors import ReproError, ServiceSaturated
from repro.library import PulseLibrary
from repro.perf import get_perf_registry
from repro.service import CompilationService, CompileRequest, ServiceConfig

#: (strategy, extra request options) — flexible-partial's tuning loop is
#: cut to one sample to keep the fleet round-trip fast.
STRATEGIES = [
    ("gate", {}),
    ("step-function", {}),
    ("full-grape", {}),
    ("strict-partial", {}),
    ("flexible-partial", {"tuning_samples": 1}),
]


#: Near-miss θ for one ansatz: each later full-grape request seeds its
#: cold blocks from the pulses the earlier ones cached.
NEAR_MISS_THETAS = ([0.4, 0.9], [0.42, 0.9], [0.44, 0.91], [0.46, 0.92])

WARM_START_COUNTERS = (
    "grape.warm_start.accepted",
    "grape.warm_start.seeded_iterations",
)


def _serial_and_fleet(
    tmp_path, fleet_workers, settings, hyper, requests, **config
) -> dict:
    """Compile ``requests`` in order on a serial service and on a service
    over a 2-worker fleet: ``{label: (results, warm-start counter
    movement)}``."""
    fleet_workers(tmp_path / "fleet", 2)
    configs = {
        "serial": ServiceConfig(executor="serial", **config),
        "fleet": ServiceConfig(
            dispatcher="queue", fleet_dir=str(tmp_path / "fleet"), **config
        ),
    }
    perf = get_perf_registry()
    runs: dict = {}
    for label, cfg in configs.items():
        before = {name: perf.counter(name) for name in WARM_START_COUNTERS}
        with CompilationService(
            config=cfg, settings=settings, hyperparameters=hyper
        ) as service:
            results = [service.compile(request) for request in requests]
            if label == "fleet":
                assert service.stats()["executor"]["completed_jobs"] > 0
        moved = {
            name: perf.counter(name) - before[name]
            for name in WARM_START_COUNTERS
        }
        runs[label] = (results, moved)
    return runs


class TestQueueDispatchParity:
    @pytest.mark.parametrize("warm_start", [False, True])
    def test_all_strategies_bit_identical_to_serial(
        self,
        tmp_path,
        workload,
        coarse_settings,
        coarse_hyper,
        programs_identical,
        fleet_workers,
        warm_start,
    ):
        """One serial service and one 2-worker fleet service compile the
        same five requests; every program must match bit-for-bit."""
        circuit, theta = workload
        requests = [
            CompileRequest(circuit, theta, strategy=name, options=dict(options))
            for name, options in STRATEGIES
        ]
        runs = _serial_and_fleet(
            tmp_path,
            fleet_workers,
            coarse_settings,
            coarse_hyper,
            requests,
            warm_start=warm_start,
        )
        for (name, _), serial, fleet in zip(
            STRATEGIES, runs["serial"][0], runs["fleet"][0]
        ):
            assert programs_identical(serial.program, fleet.program), name
            assert fleet.strategy == name

    def test_near_miss_sequence_bit_identical_to_serial(
        self,
        tmp_path,
        workload,
        coarse_settings,
        coarse_hyper,
        programs_identical,
        fleet_workers,
    ):
        """Warm start on (the default): later requests seed from the
        pulses earlier ones cached, and the fleet must seed exactly as
        serial does, whatever its workers have seen."""
        circuit, _ = workload
        requests = [
            CompileRequest(circuit, theta, strategy="full-grape")
            for theta in NEAR_MISS_THETAS
        ]
        runs = _serial_and_fleet(
            tmp_path, fleet_workers, coarse_settings, coarse_hyper, requests
        )
        for theta, serial, fleet in zip(
            NEAR_MISS_THETAS, runs["serial"][0], runs["fleet"][0]
        ):
            assert programs_identical(serial.program, fleet.program), theta

    def test_fleet_warm_start_counts_come_home(
        self, tmp_path, workload, coarse_settings, coarse_hyper, fleet_workers
    ):
        """The warm-start counters a fleet-served full-grape compile moves
        in its workers move in the dispatching process, by the same
        amounts as under ``executor="serial"``."""
        circuit, theta = workload
        runs = _serial_and_fleet(
            tmp_path,
            fleet_workers,
            coarse_settings,
            coarse_hyper,
            [CompileRequest(circuit, theta, strategy="full-grape")],
        )
        serial_moved, fleet_moved = runs["serial"][1], runs["fleet"][1]
        assert serial_moved["grape.warm_start.seeded_iterations"] > 0
        assert fleet_moved == serial_moved

    def test_fleet_pulses_land_in_the_service_library(
        self,
        tmp_path,
        workload,
        coarse_settings,
        coarse_hyper,
        programs_identical,
        fleet_workers,
    ):
        """With ``dispatcher="queue"`` and a ``cache_dir`` the service
        caches the fleet's pulses in its own library: a later serial
        service over the same directory compiles from hits alone."""
        circuit, theta = workload
        cache_dir = str(tmp_path / "cache")
        request = CompileRequest(circuit, theta, strategy="full-grape")
        fleet_workers(tmp_path / "cache" / "fleet", 1)
        with CompilationService(
            config=ServiceConfig(dispatcher="queue", cache_dir=cache_dir),
            settings=coarse_settings,
            hyperparameters=coarse_hyper,
        ) as service:
            fleet = service.compile(request)
            assert service.stats()["executor"]["completed_jobs"] > 0
        assert PulseLibrary(cache_dir).sweep()["entries"] > 0
        with CompilationService(
            config=ServiceConfig(executor="serial", cache_dir=cache_dir),
            settings=coarse_settings,
            hyperparameters=coarse_hyper,
        ) as service:
            warm = service.compile(request)
        assert warm.compiled.runtime_iterations == 0
        assert programs_identical(warm.program, fleet.program)

    def test_fleet_dir_derived_from_cache_dir(self, tmp_path):
        config = ServiceConfig(
            dispatcher="queue", cache_dir=str(tmp_path / "cache")
        )
        with CompilationService(config=config) as service:
            assert service.executor.queue.directory == (
                Path(tmp_path) / "cache" / "fleet"
            )
            assert service.stats()["executor"]["executor"] == "queue"

    def test_queue_dispatcher_without_directory_is_an_error(self):
        with pytest.raises(ReproError, match="REPRO_FLEET_DIR"):
            CompilationService(config=ServiceConfig(dispatcher="queue"))


class TestBoundedAdmission:
    def test_queue_depth_bounds_and_counts_backpressure(
        self, workload, coarse_settings, coarse_hyper
    ):
        """Three submissions through a depth-1 gate: all complete, and at
        least two had to wait for a slot."""
        circuit, theta = workload
        config = ServiceConfig(
            executor="serial",
            submit_workers=2,
            queue_depth=1,
            warm_start=False,
        )
        with CompilationService(
            config=config,
            settings=coarse_settings,
            hyperparameters=coarse_hyper,
        ) as service:
            futures = [
                service.submit(CompileRequest(circuit, theta, strategy="gate"))
                for _ in range(3)
            ]
            durations = {f.result(timeout=300).program.duration_ns for f in futures}
            stats = service.stats()["requests"]
        assert len(durations) == 1  # identical requests, identical programs
        assert stats["submitted"] == 3
        assert stats["queue_depth"] == 1
        assert stats["backpressure_waits"] >= 1

    def test_nonblocking_submit_raises_when_saturated(
        self, workload, coarse_settings, coarse_hyper
    ):
        """``submit(block=False)`` on a full depth-1 queue fails fast with
        ServiceSaturated (the HTTP frontend's 429) instead of waiting."""
        circuit, theta = workload
        config = ServiceConfig(
            executor="serial", queue_depth=1, warm_start=False
        )
        with CompilationService(
            config=config,
            settings=coarse_settings,
            hyperparameters=coarse_hyper,
        ) as service:
            request = CompileRequest(circuit, theta, strategy="gate")
            # Hold the only admission slot so saturation is deterministic.
            assert service._admission.acquire(blocking=False)
            try:
                with pytest.raises(ServiceSaturated, match="queue is full"):
                    service.submit(request, block=False)
            finally:
                service._admission.release()
            stats = service.stats()["requests"]
            assert stats["backpressure_waits"] == 1
            assert stats["submitted"] == 0  # the refusal admitted nothing
            # With the slot back, the non-blocking path admits normally.
            future = service.submit(request, block=False)
            assert future.result(timeout=300).compiled is not None

    def test_nonblocking_submit_without_bound_always_admits(
        self, workload, coarse_settings, coarse_hyper
    ):
        circuit, theta = workload
        with CompilationService(
            config=ServiceConfig(executor="serial", warm_start=False),
            settings=coarse_settings,
            hyperparameters=coarse_hyper,
        ) as service:
            future = service.submit(
                CompileRequest(circuit, theta, strategy="gate"), block=False
            )
            future.result(timeout=300)
            assert service.stats()["requests"]["backpressure_waits"] == 0

    def test_unbounded_admission_never_waits(
        self, workload, coarse_settings, coarse_hyper
    ):
        circuit, theta = workload
        with CompilationService(
            config=ServiceConfig(executor="serial", warm_start=False),
            settings=coarse_settings,
            hyperparameters=coarse_hyper,
        ) as service:
            future = service.submit(
                CompileRequest(circuit, theta, strategy="gate")
            )
            future.result(timeout=300)
            stats = service.stats()["requests"]
        assert stats["queue_depth"] is None
        assert stats["backpressure_waits"] == 0
