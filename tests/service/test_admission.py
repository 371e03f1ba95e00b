"""Bounded admission on ``CompilationService.submit``.

``queue_depth`` bounds admission — extra ``submit()`` calls block and
are counted — without losing or erroring any request, and
``submit(block=False)`` on a full queue fails fast with
``ServiceSaturated`` (the HTTP frontend's 429).
"""

from __future__ import annotations

import pytest

from repro.errors import ServiceSaturated
from repro.service import CompilationService, CompileRequest, ServiceConfig


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
