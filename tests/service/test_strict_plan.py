"""Strict partial compilation replays a per-ansatz blocking plan.

A strict request precompiles the *symbolic* circuit, so its isolate-θ
blocking, its Fixed-block keys and subcircuits, their gate times and the
gate-based duration depend only on the ansatz.  The first request of an
ansatz records them in the service's plan cache; every later request
replays them inside ``BlockingStage.run`` and still runs one scheduler
pass over the pulse cache.
"""

import hashlib
import sys
import threading

import numpy as np
import pytest

from repro.circuits import Parameter, QuantumCircuit
from repro.core.cache import PulseCache
from repro.core.compiler import BlockPulseCompiler
from repro.pipeline.scheduler import BlockScheduler
from repro.pipeline.stages import BlockingStage
from repro.service import CompilationService, CompileRequest, ServiceConfig

THETAS = [[0.4, 0.9], [0.1, 1.2], [0.7, 0.3]]


def _service(settings, hyper):
    return CompilationService(
        config=ServiceConfig(executor="serial"),
        settings=settings,
        hyperparameters=hyper,
    )


def _strict(circuit, values, use_cache=True):
    return CompileRequest(
        circuit,
        values,
        strategy="strict-partial",
        max_block_width=2,
        use_cache=use_cache,
    )


def _digest(result) -> tuple:
    digest = hashlib.sha256()
    for schedule in result.program.schedules:
        controls = np.ascontiguousarray(schedule.controls, dtype=np.float64)
        digest.update(repr((schedule.qubits, schedule.dt_ns, controls.shape)).encode())
        digest.update(controls.tobytes())
    return result.pulse_duration_ns, digest.hexdigest()


class _Counter:
    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.fn(*args, **kwargs)


def _spy_everywhere(monkeypatch, module_name: str, name: str) -> _Counter:
    """Count calls of a function under every ``repro`` module name bound
    to it, so a caller's own import cannot dodge the spy."""
    original = getattr(sys.modules[module_name], name)
    counter = _Counter(original)
    for module in list(sys.modules.values()):
        if (module.__name__ or "").startswith("repro") and (
            getattr(module, name, None) is original
        ):
            monkeypatch.setattr(module, name, counter)
    return counter


def _spy_method(monkeypatch, cls, name: str) -> _Counter:
    counter = _Counter(getattr(cls, name))
    monkeypatch.setattr(cls, name, lambda *a, **k: counter(*a, **k))
    return counter


def test_second_request_replays_the_plan(
    monkeypatch, workload, coarse_settings, coarse_hyper
):
    """The second request of an ansatz blocks nothing, keys nothing,
    binds nothing and builds no lookup program."""
    circuit, _ = workload
    with _service(coarse_settings, coarse_hyper) as service:
        first = service.compile(_strict(circuit, THETAS[0]))
        spies = {
            "aggregate_blocks": _spy_everywhere(
                monkeypatch, "repro.blocking.aggregate", "aggregate_blocks"
            ),
            "lookup_program": _spy_everywhere(
                monkeypatch, "repro.pipeline.stages", "lookup_program"
            ),
            "task_identity": _spy_method(
                monkeypatch, BlockPulseCompiler, "task_identity"
            ),
            "bind_parameters": _spy_method(
                monkeypatch, QuantumCircuit, "bind_parameters"
            ),
        }
        blocking = _spy_method(monkeypatch, BlockingStage, "run")
        second = service.compile(_strict(circuit, THETAS[1]))
        plan = service.stats()["plan_cache"]
    assert {name: spy.calls for name, spy in spies.items()} == dict.fromkeys(spies, 0)
    assert blocking.calls == 1
    assert (plan["plan_misses"], plan["plan_hits"]) == (1, 1)
    assert _digest(first) == _digest(second)
    # The scheduler pass still claims every Fixed block on the pulse cache.
    scheduler = second.precompile_report.metadata["scheduler"]
    assert scheduler["reused_blocks"] == second.precompile_report.blocks_precompiled


def test_warm_request_builds_no_circuit_times_no_block_and_hashes_nothing(
    monkeypatch, workload, coarse_settings, coarse_hyper
):
    """A call count, not a timing: the second request of an ansatz takes
    every Fixed subcircuit and gate time from the plan and its circuit's
    fingerprint from the circuit, yet still runs every layer and claims
    each Fixed block on the pulse cache."""
    circuit, _ = workload
    with _service(coarse_settings, coarse_hyper) as service:
        service.compile(_strict(circuit, THETAS[0]))
        (plan,) = service.plan_cache.plans.values()
        spies = {
            "append": _spy_method(monkeypatch, QuantumCircuit, "append"),
            "critical_path_ns": _spy_everywhere(
                monkeypatch, "repro.circuits.dag", "critical_path_ns"
            ),
            "sha256": _Counter(hashlib.sha256),
        }
        monkeypatch.setattr(hashlib, "sha256", spies["sha256"])
        layers = {
            "blocking": _spy_method(monkeypatch, BlockingStage, "run"),
            "scheduler": _spy_method(monkeypatch, BlockScheduler, "run"),
            "claim": _spy_method(monkeypatch, PulseCache, "claim"),
        }
        service.compile(_strict(circuit, THETAS[1]))
    assert {name: spy.calls for name, spy in spies.items()} == dict.fromkeys(spies, 0)
    fixed = [b for b in plan.blocks if not b.parametrized and b.dedup_key is not None]
    assert fixed
    assert {name: spy.calls for name, spy in layers.items()} == {
        "blocking": 1,
        "scheduler": 1,
        "claim": len(fixed),
    }


@pytest.mark.parametrize("strategy", ["strict-partial", "full-grape"])
def test_a_circuit_changed_after_its_first_request_gets_its_own_plan(
    workload, coarse_settings, coarse_hyper, strategy
):
    """Appending to a circuit drops its cached fingerprint, so the next
    request keys, blocks and compiles the new content — exactly what a
    fresh service makes of an equal circuit."""
    circuit, theta = workload
    circuit = circuit.copy()

    def request(c):
        return CompileRequest(c, theta, strategy=strategy, max_block_width=2)

    with _service(coarse_settings, coarse_hyper) as service:
        before = service.compile(request(circuit))
        circuit.h(0).cx(0, 1)
        after = service.compile(request(circuit))
        plan = service.stats()["plan_cache"]
    with _service(coarse_settings, coarse_hyper) as fresh:
        reference = fresh.compile(request(circuit.copy()))
    assert (plan["plan_misses"], plan["plan_hits"], plan["entries"]) == (2, 0, 2)
    assert _digest(after) == _digest(reference)
    assert _digest(after) != _digest(before)


def test_concurrent_strict_and_full_grape_replays_match_serial(
    workload, coarse_settings, coarse_hyper
):
    """Concurrent replays of one ansatz's plans share each plan's stored
    subcircuits across threads; every result is bit-identical to the
    same requests compiled one by one.  Warm start is off, so no result
    depends on which request cached its pulses first."""
    circuit, _ = workload
    config = ServiceConfig(executor="serial", warm_start=False)
    warmup = [
        _strict(circuit, THETAS[0]),
        CompileRequest(circuit, THETAS[0], strategy="full-grape", max_block_width=2),
    ]
    requests = [
        CompileRequest(circuit, theta, strategy=strategy, max_block_width=2)
        for theta in THETAS[1:] + THETAS[1:]
        for strategy in ("strict-partial", "full-grape")
    ]

    def service():
        return CompilationService(
            config=config, settings=coarse_settings, hyperparameters=coarse_hyper
        )

    with service() as serial_service:
        for request in warmup:
            serial_service.compile(request)
        serial = [serial_service.compile(request) for request in requests]

    with service() as concurrent_service:
        for request in warmup:
            concurrent_service.compile(request)
        futures = [None] * len(requests)
        barrier = threading.Barrier(len(requests))

        def submit(index):
            barrier.wait()
            futures[index] = concurrent_service.submit(requests[index])

        threads = [
            threading.Thread(target=submit, args=(i,)) for i in range(len(requests))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        concurrent = [future.result(timeout=300) for future in futures]
        plan = concurrent_service.stats()["plan_cache"]

    assert (plan["plan_misses"], plan["plan_hits"]) == (2, len(requests))
    assert [_digest(r) for r in concurrent] == [_digest(r) for r in serial]


def test_results_are_bit_identical_with_and_without_cache(
    workload, coarse_settings, coarse_hyper
):
    circuit, _ = workload
    with _service(coarse_settings, coarse_hyper) as service:
        cached = [service.compile(_strict(circuit, theta)) for theta in THETAS]
        uncached = [
            service.compile(_strict(circuit, theta, use_cache=False))
            for theta in THETAS[:2]
        ]
        plan = service.stats()["plan_cache"]
    assert (plan["plan_misses"], plan["plan_hits"]) == (1, len(THETAS) - 1)
    digests = {_digest(result) for result in cached + uncached}
    assert len(digests) == 1
    assert not any(r.metadata["program_fallback"] for r in cached + uncached)


def test_results_share_no_mutable_placement(workload, coarse_settings, coarse_hyper):
    """Each result owns its placement list, and the lookup pulses the
    compiler shares between results are read-only."""
    circuit, _ = workload
    with _service(coarse_settings, coarse_hyper) as service:
        a, b = (service.compile(_strict(circuit, theta)) for theta in THETAS[:2])
    assert a.program.placed is not b.program.placed
    lookups = [s for s in a.program.schedules if s.source == "lookup"]
    assert lookups
    for schedule in lookups:
        with pytest.raises(ValueError):
            schedule.controls[0, 0] = 1.0


def test_full_grape_and_strict_keep_separate_plans(
    workload, coarse_settings, coarse_hyper
):
    """One circuit blocked plainly (full-grape) and with isolated θ-gates
    (strict) gets two plans; neither request replays the other's."""
    circuit, theta = workload
    with _service(coarse_settings, coarse_hyper) as service:
        grape = service.compile(
            CompileRequest(circuit, theta, strategy="full-grape", max_block_width=2)
        )
        service.compile(_strict(circuit, theta))
        after_both = service.stats()["plan_cache"]
        again = service.compile(
            CompileRequest(circuit, theta, strategy="full-grape", max_block_width=2)
        )
        service.compile(_strict(circuit, theta))
        plan = service.stats()["plan_cache"]
    assert grape.metadata["plan_cache"] == "miss"
    assert again.metadata["plan_cache"] == "hit"
    assert (after_both["entries"], after_both["plan_misses"], after_both["plan_hits"]) == (2, 2, 0)
    assert (plan["entries"], plan["plan_misses"], plan["plan_hits"]) == (2, 2, 2)
    assert _digest(grape) == _digest(again)


def test_program_longer_than_gate_based_falls_back(coarse_settings):
    """Blocking ``h(0)`` with the later ``cx(0, 1)`` makes the block wait
    for the isolated ``Rz(θ)`` on qubit 1; with GRAPE unable to converge
    the blocked program outlasts the gate-based one, so every request —
    the plan's first, its replays and an uncached one — returns the
    lookup program."""
    from repro.pulse.grape.engine import GrapeHyperparameters

    theta = Parameter("theta_0")
    circuit = QuantumCircuit(2, name="slack")
    circuit.h(0)
    circuit.rz(theta, 1)
    circuit.cx(0, 1)
    hyper = GrapeHyperparameters(learning_rate=0.05, decay_rate=0.002, max_iterations=1)
    with _service(coarse_settings, hyper) as service:
        results = [
            service.compile(_strict(circuit, [0.3])),
            service.compile(_strict(circuit, [1.7])),
            service.compile(_strict(circuit, [0.3], use_cache=False)),
        ]
        plan = service.stats()["plan_cache"]
    assert (plan["plan_misses"], plan["plan_hits"]) == (1, 1)
    for result in results:
        assert result.metadata["program_fallback"] is True
        assert result.pulse_duration_ns == pytest.approx(1.4 + 3.8)
        assert {s.source for s in result.program.schedules} == {"lookup"}
    assert len({_digest(result) for result in results}) == 1
