"""Satellite: concurrent ``service.submit()`` from ≥4 threads.

Results must be bit-identical to a serial ``compile()`` of the same
requests, exactly one pool/library may be instantiated, and the
stats counters must stay consistent.  Strategy execution runs *outside*
the facade lock, so these tests exercise genuine overlap — the module
fixture arms a faulthandler guard that dumps every thread's stack and
kills the run if a deadlock ever sneaks in, instead of hanging to the CI
timeout.
"""

import faulthandler
import threading
import time

import numpy as np
import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.core.cache import PulseCache
from repro.pulse.device import GmonDevice
from repro.pulse.grape.engine import GrapeHyperparameters, GrapeSettings
from repro.service import CompilationService, CompileRequest, ServiceConfig
from repro.transpile.topology import line_topology


THREADS = 4


@pytest.fixture(autouse=True)
def deadlock_guard():
    """Fail loud on hangs: dump all stacks and exit after 300 s."""
    faulthandler.dump_traceback_later(300, exit=True)
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture(scope="module")
def thetas():
    return [[0.4, 0.9], [0.1, 1.2], [0.7, 0.3], [1.0, 0.5]]


def _requests(circuit, thetas):
    return [
        CompileRequest(circuit, theta, strategy="full-grape", max_block_width=2)
        for theta in thetas
    ]


# Warm start off for the bit-identity tests: cross-request neighbor
# seeding makes request N's pulses depend on which earlier requests have
# already cached theirs — sequential compiles see every predecessor,
# barrier-synced submits see none.  Both orderings are correct (seeds are
# re-optimized and best-of guarded) but not bit-identical, so equivalence
# of the *concurrency machinery* is asserted with seeding disabled.
_EXACT_CONFIG = ServiceConfig(warm_start=False)


class _InstanceCounter:
    """Counts constructions of a class via an ``__init__`` wrapper."""

    def __init__(self, monkeypatch, cls):
        self.count = 0
        original = cls.__init__

        def counting(obj, *args, **kwargs):
            self.count += 1
            original(obj, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)


def test_concurrent_submit_matches_serial(
    monkeypatch, workload, thetas, coarse_settings, coarse_hyper, programs_identical
):
    circuit, _ = workload

    # Serial reference: one service, sequential compile() calls.
    with CompilationService(
        config=_EXACT_CONFIG, settings=coarse_settings, hyperparameters=coarse_hyper
    ) as serial_service:
        serial = [
            serial_service.compile(request)
            for request in _requests(circuit, thetas)
        ]

    # Concurrent run on a fresh service, instrumented: constructing the
    # service builds exactly one cache, and the concurrent phase must not
    # build any more.
    caches = _InstanceCounter(monkeypatch, PulseCache)
    service = CompilationService(
        config=_EXACT_CONFIG, settings=coarse_settings, hyperparameters=coarse_hyper
    )
    assert caches.count == 1

    futures = [None] * THREADS
    barrier = threading.Barrier(THREADS)
    requests = _requests(circuit, thetas)

    def submit(index):
        barrier.wait()  # all four threads hit submit() together
        futures[index] = service.submit(requests[index])

    threads = [
        threading.Thread(target=submit, args=(i,)) for i in range(THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    concurrent = [future.result(timeout=300) for future in futures]

    # Bit-identical programs, request-for-request.
    for serial_result, concurrent_result in zip(serial, concurrent):
        assert programs_identical(
            serial_result.program, concurrent_result.program
        )

    # Exactly one cache for the whole concurrent phase, and the shared
    # instance is the one every request went through.
    assert caches.count == 1
    assert all(result.metadata["scheduler"] is not None for result in concurrent)

    # Counter consistency: every submission accounted for, once.
    stats = service.stats()
    assert stats["requests"]["total"] == THREADS
    assert stats["requests"]["submitted"] == THREADS
    assert stats["requests"]["by_strategy"] == {"full-grape": THREADS}
    assert all(
        result.metadata["scheduler"]["circuits"] == 1 for result in concurrent
    )
    # The later requests reuse the first request's θ-independent blocks.
    assert sum(
        result.metadata["scheduler"]["reused_blocks"] for result in concurrent
    ) > 0
    service.close()


def test_stress_submit_bit_identical_and_deadlock_free(
    workload, thetas, coarse_settings, coarse_hyper, programs_identical
):
    """2×THREADS barrier-synced submits, duplicate requests included.

    Threads ``i`` and ``i + THREADS`` submit the *same* request, so the
    pulse cache's single-flight path runs under maximum contention:
    identical keys claimed by one pass while concurrent passes wait for
    its entry.  Every result must still be bit-identical to the serial
    reference; the module's ``deadlock_guard`` turns any hang into a
    stack dump instead of a silent timeout.
    """
    circuit, _ = workload
    stress_thetas = thetas + thetas
    with CompilationService(
        config=_EXACT_CONFIG, settings=coarse_settings, hyperparameters=coarse_hyper
    ) as serial_service:
        serial = [
            serial_service.compile(request)
            for request in _requests(circuit, stress_thetas)
        ]

    service = CompilationService(
        config=_EXACT_CONFIG, settings=coarse_settings, hyperparameters=coarse_hyper
    )
    requests = _requests(circuit, stress_thetas)
    futures = [None] * len(requests)
    barrier = threading.Barrier(len(requests))

    def submit(index):
        barrier.wait()
        futures[index] = service.submit(requests[index])

    threads = [
        threading.Thread(target=submit, args=(i,))
        for i in range(len(requests))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    concurrent = [future.result(timeout=300) for future in futures]

    for serial_result, concurrent_result in zip(serial, concurrent):
        assert programs_identical(
            serial_result.program, concurrent_result.program
        )

    stats = service.stats()
    assert stats["requests"]["total"] == len(requests)
    assert sum(
        result.metadata["scheduler"]["reused_blocks"] for result in concurrent
    ) > 0
    service.close()


def _near_miss_circuit(offset: float) -> QuantumCircuit:
    """Three 2-qubit entangler tiles whose rotations sit ``offset`` rad
    from the other requests' — near misses for warm start, no shared
    blocks for the scheduler."""
    circuit = QuantumCircuit(6, name=f"disjoint_{offset}")
    for q in range(0, 5, 2):
        circuit.h(q).cx(q, q + 1).rz(0.3 + 0.2 * q + offset, q + 1).cx(q, q + 1)
    return circuit


def test_concurrent_submit_matches_serial_and_never_loses_on_defaults():
    """Four near-miss requests through the default config (warm start
    on): concurrent ``submit()`` must return the pulse durations of
    serial ``compile()``, and must not be slower beyond a noise margin —
    safe on one CPU, where overlap degenerates to interleaving.  The
    duration check fails today: serial order seeds requests 2–4 from
    request 1's pulses, while overlapped requests seed from KAK."""
    requests = [
        CompileRequest(
            _near_miss_circuit(0.05 * (i + 1)),
            strategy="full-grape",
            max_block_width=2,
        )
        for i in range(4)
    ]

    def service():
        return CompilationService(
            config=ServiceConfig(),
            device=GmonDevice(line_topology(6)),
            settings=GrapeSettings(dt_ns=0.5, target_fidelity=0.95),
            hyperparameters=GrapeHyperparameters(0.05, 0.002, max_iterations=100),
        )

    with service() as serial_service:
        start = time.perf_counter()
        serial = [serial_service.compile(request) for request in requests]
        serial_wall = time.perf_counter() - start
    with service() as concurrent_service:
        start = time.perf_counter()
        futures = [concurrent_service.submit(request) for request in requests]
        concurrent = [future.result(timeout=600) for future in futures]
        concurrent_wall = time.perf_counter() - start

    assert all(
        np.isclose(s.program.duration_ns, c.program.duration_ns)
        for s, c in zip(serial, concurrent)
    ), "concurrent submit() disagreed with serial compile()"
    assert concurrent_wall <= serial_wall * 1.25, (
        f"concurrent submit() was slower than serial compile() beyond the "
        f"noise margin: {concurrent_wall:.2f} s vs {serial_wall:.2f} s"
    )
