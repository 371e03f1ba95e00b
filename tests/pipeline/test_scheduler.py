"""Cross-circuit block dedup: each unique block compiles exactly once."""

import threading

import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.parameters import Parameter
from repro.core import PulseCache
from repro.core.compiler import BlockPulseCompiler
from repro.errors import PipelineError
from repro.perf import get_perf_registry
from repro.pipeline import BlockScheduler, SerialExecutor
from repro.pipeline.stages import BindStage, BlockingStage, PipelineContext
from repro.pipeline.strategies import full_grape_pipeline
from repro.pulse.device import GmonDevice
from repro.pulse.grape.engine import GrapeHyperparameters, GrapeSettings
from repro.service import CompilationService, CompileRequest, ServiceConfig
from repro.transpile.topology import line_topology

SETTINGS = GrapeSettings(dt_ns=0.5, target_fidelity=0.95)
HYPER = GrapeHyperparameters(0.05, 0.002, max_iterations=120)


class CountingCache(PulseCache):
    """A cache that records every key GRAPE actually computed (put) for."""

    def __init__(self):
        super().__init__()
        self.put_keys = []

    def put(self, key, entry, target=None):
        self.put_keys.append(key)
        super().put(key, entry, target=target)


def _shared_block_circuit(theta: float = 0.0) -> QuantumCircuit:
    """Two translated copies of one entangling block (+ optional Rz)."""
    circuit = QuantumCircuit(4)
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.h(2)
    circuit.cx(2, 3)
    if theta:
        circuit.rz(theta, 1)
    return circuit


def _compile_many(circuits, values=None, cache=None) -> list:
    """Full-GRAPE batch through one ``compile_batch`` call of a fresh
    service; ``cache`` replaces the service's empty pulse cache."""
    circuits = list(circuits)
    values = values if values is not None else [None] * len(circuits)
    with CompilationService(
        config=ServiceConfig(executor="serial"),
        device=GmonDevice(line_topology(4)),
        settings=SETTINGS,
        hyperparameters=HYPER,
    ) as service:
        if cache is not None:
            service.cache = cache
        results = service.compile_batch(
            [
                CompileRequest(c, v, strategy="full-grape", max_block_width=2)
                for c, v in zip(circuits, values)
            ]
        )
    return [result.compiled for result in results]


class TestCompileMany:
    def test_shared_blocks_compile_exactly_once(self):
        """The acceptance contract: ≥3 circuits sharing blocks, each unique
        block GRAPE-compiled exactly once, asserted via telemetry."""
        cache = CountingCache()
        circuits = [
            _shared_block_circuit(),
            _shared_block_circuit(),
            _shared_block_circuit(0.3),
        ]
        results = _compile_many(circuits, cache=cache)
        assert len(results) == 3
        scheduler = results[0].metadata["scheduler"]
        # 2 blocks per circuit; the h+cx block is shared by all three
        # circuits (and its translated copy within each), the rz variant
        # appears only in the third.
        assert scheduler["total_blocks"] == 6
        assert scheduler["unique_blocks"] == 2
        assert scheduler["deduped_blocks"] == 4
        assert scheduler["dispatched_tasks"] == scheduler["unique_blocks"]
        # GRAPE ran exactly once per unique block: one cache put per key,
        # no key computed twice.
        assert len(cache.put_keys) == 2
        assert len(set(cache.put_keys)) == 2

    def test_batch_matches_single_circuit_compiles(self):
        circuits = [_shared_block_circuit(), _shared_block_circuit(0.4)]
        batch = _compile_many(circuits)
        singles = [_compile_many([c])[0] for c in circuits]
        for batched, single in zip(batch, singles):
            assert batched.pulse_duration_ns == pytest.approx(
                single.pulse_duration_ns
            )
            assert batched.blocks_compiled == single.blocks_compiled

    def test_duplicates_cost_zero_iterations(self):
        results = _compile_many([_shared_block_circuit(), _shared_block_circuit()])
        assert results[0].runtime_iterations > 0
        assert results[1].runtime_iterations == 0
        assert results[1].cache_hits == results[1].blocks_compiled

    def test_translated_duplicate_lands_on_its_own_qubits(self):
        results = _compile_many([_shared_block_circuit()])
        schedules = results[0].program.schedules
        qubit_sets = {tuple(s.qubits) for s in schedules}
        assert (0, 1) in qubit_sets and (2, 3) in qubit_sets

    def test_perf_counters_record_dedup(self):
        registry = get_perf_registry()
        before_unique = registry.counter("scheduler.unique_blocks")
        before_deduped = registry.counter("scheduler.deduped_blocks")
        _compile_many([_shared_block_circuit()] * 2)
        assert registry.counter("scheduler.unique_blocks") == before_unique + 1
        assert registry.counter("scheduler.deduped_blocks") == before_deduped + 3

    def test_empty_batch(self):
        assert _compile_many([]) == []

    def test_parametrized_batch_dedups_theta_free_blocks(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.rz(Parameter("theta"), 1)
        circuit.cx(0, 1)
        results = _compile_many([circuit] * 3, values=[[0.1], [0.2], [0.3]])
        scheduler = results[0].metadata["scheduler"]
        assert scheduler["circuits"] == 3
        # The bound circuits differ only in the Rz angle; with width-2
        # blocking the whole circuit is one block per binding, all unique.
        assert scheduler["total_blocks"] == 3
        assert len(results) == 3

    def test_thread_executor_still_exact_once(self, threaded_executor):
        cache = CountingCache()
        block_compiler = BlockPulseCompiler(
            GmonDevice(line_topology(4)), SETTINGS, HYPER, cache
        )
        pipeline = full_grape_pipeline(block_compiler, 2, threaded_executor)
        _contexts, report = pipeline.run_many([_shared_block_circuit()] * 3)
        assert report.unique_blocks == 1
        assert len(cache.put_keys) == 1


class TestRunMany:
    def test_empty_batch_returns_no_contexts_and_a_zero_report(self):
        block_compiler = BlockPulseCompiler(
            GmonDevice(line_topology(4)), SETTINGS, HYPER, PulseCache()
        )
        pipeline = full_grape_pipeline(block_compiler, 2)
        contexts, report = pipeline.run_many([])
        assert contexts == []
        assert report.circuits == 0
        assert report.total_blocks == 0
        assert report.dispatched_tasks == 0

    def test_plain_run_is_the_batch_of_one(self):
        block_compiler = BlockPulseCompiler(
            GmonDevice(line_topology(4)), SETTINGS, HYPER, PulseCache()
        )
        pipeline = full_grape_pipeline(block_compiler, 2)
        circuit = _shared_block_circuit(0.7)
        contexts, report = pipeline.run_many([circuit])
        single = full_grape_pipeline(
            BlockPulseCompiler(
                GmonDevice(line_topology(4)), SETTINGS, HYPER, PulseCache()
            ),
            2,
        ).run(circuit)
        assert report.circuits == 1
        assert contexts[0].program.duration_ns == pytest.approx(
            single.program.duration_ns
        )
        assert len(contexts[0].block_results) == len(single.block_results)
        # ``run`` went through the scheduler too.
        assert single.metadata["scheduler"]["circuits"] == 1

    def test_values_length_mismatch_raises(self):
        block_compiler = BlockPulseCompiler(
            GmonDevice(line_topology(4)), SETTINGS, HYPER, PulseCache()
        )
        pipeline = full_grape_pipeline(block_compiler, 2)
        with pytest.raises(PipelineError):
            pipeline.run_many([_shared_block_circuit()], values=[None, None])

    def test_contexts_carry_scheduler_metadata_and_timings(self):
        block_compiler = BlockPulseCompiler(
            GmonDevice(line_topology(4)), SETTINGS, HYPER, PulseCache()
        )
        pipeline = full_grape_pipeline(block_compiler, 2)
        contexts, report = pipeline.run_many([_shared_block_circuit()] * 2)
        assert report.unique_blocks == 1
        for context in contexts:
            assert context.metadata["scheduler"]["unique_blocks"] == 1
            stage_names = [name for name, _ in context.stage_timings]
            assert stage_names == ["bind", "block", "pulse", "assemble"]
            assert context.program is not None

    def test_pipeline_without_dedup_capable_pulse_stage_falls_back(self):
        from repro.pipeline.strategies import gate_based_pipeline

        pipeline = gate_based_pipeline()
        circuit = QuantumCircuit(2).h(0).cx(0, 1)
        contexts, report = pipeline.run_many([circuit, circuit])
        assert report is None
        assert all(c.program is not None for c in contexts)


class TestBlockScheduler:
    def test_requires_blocked_contexts(self):
        from repro.pipeline.stages import PipelineContext

        block_compiler = BlockPulseCompiler(
            GmonDevice(line_topology(2)), SETTINGS, HYPER, PulseCache()
        )
        scheduler = BlockScheduler(block_compiler)
        with pytest.raises(PipelineError):
            scheduler.run([PipelineContext(circuit=QuantumCircuit(1))])

    def test_trivial_blocks_compile_inline(self):
        block_compiler = BlockPulseCompiler(
            GmonDevice(line_topology(2)), SETTINGS, HYPER, PulseCache()
        )
        pipeline = full_grape_pipeline(block_compiler, 2)
        # An identity-only circuit produces zero-duration blocks (no GRAPE).
        circuit = QuantumCircuit(2)
        circuit.i(0)
        circuit.i(1)
        contexts, report = pipeline.run_many([circuit])
        assert report.trivial_blocks == report.total_blocks
        assert report.dispatched_tasks == 0
        assert contexts[0].program is not None


@pytest.fixture
def fake_search(monkeypatch):
    """Replace every block search by one converged 0.5 ns pulse (so one
    block's keeping or discarding it depends only on its gate time) and
    count the searches."""
    import numpy as np

    from repro.core import compiler
    from repro.pulse.grape.time_search import MinimumTimeResult
    from repro.pulse.schedule import PulseSchedule

    searches = []

    def search(job):
        searches.append(job.key)
        return MinimumTimeResult(
            schedule=PulseSchedule(
                qubits=job.device_qubits, dt_ns=0.5, controls=np.ones((2, 1))
            ),
            duration_ns=0.5,
            fidelity=0.97,
            converged=True,
            total_iterations=12,
            grape_calls=1,
            wall_time_s=0.0,
        )

    monkeypatch.setattr(compiler, "search_job", search)
    return searches


def _single_qubit_context(*gates: str) -> PipelineContext:
    circuit = QuantumCircuit(1)
    for gate in gates:
        getattr(circuit, gate)(0)
    return _blocked_context(circuit)


class TestFanOutRule:
    """A duplicate or reused block is judged like a cache hit against its
    *own* gate time: a GRAPE pulse its representative discarded (the
    representative's decomposition was faster) still wins for a block
    whose decomposition is slower.  S (0.4 ns) and T·T (0.8 ns) are one
    unitary; the search returns a 0.5 ns pulse."""

    def _scheduler(self):
        compiler = BlockPulseCompiler(
            GmonDevice(line_topology(1)), SETTINGS, HYPER, PulseCache()
        )
        return BlockScheduler(compiler)

    def _check(self, representative, slower):
        assert not representative.used_grape
        assert representative.duration_ns == pytest.approx(0.4)
        assert slower.used_grape and slower.cache_hit
        assert slower.duration_ns == 0.5
        assert slower.iterations == 0

    def test_in_batch_duplicate_keeps_the_discarded_pulse(self, fake_search):
        scheduler = self._scheduler()
        contexts = [_single_qubit_context("s"), _single_qubit_context("t", "t")]
        report = scheduler.run(contexts)
        assert len(fake_search) == 1
        assert report.deduped_blocks == 1
        self._check(contexts[0].block_results[0], contexts[1].block_results[0])

    def test_reused_block_keeps_the_discarded_pulse(self, fake_search):
        scheduler = self._scheduler()
        first = [_single_qubit_context("s")]
        scheduler.run(first)
        second = [_single_qubit_context("t", "t")]
        report = scheduler.run(second)
        assert len(fake_search) == 1
        assert report.reused_blocks == 1 and report.dispatched_tasks == 0
        self._check(first[0].block_results[0], second[0].block_results[0])


class TestTaskKey:
    def test_translation_invariant_same_key(self):
        block_compiler = BlockPulseCompiler(
            GmonDevice(line_topology(4)), SETTINGS, HYPER, PulseCache()
        )
        sub = QuantumCircuit(2).h(0).cx(0, 1)
        assert block_compiler.task_key(sub, (0, 1)) == block_compiler.task_key(
            sub, (2, 3)
        )

    def test_parametrized_and_empty_blocks_have_no_key(self):
        block_compiler = BlockPulseCompiler(
            GmonDevice(line_topology(2)), SETTINGS, HYPER, PulseCache()
        )
        assert block_compiler.task_key(None, (0,)) is None
        assert block_compiler.task_key(QuantumCircuit(1), (0,)) is None
        sym = QuantumCircuit(1)
        sym.rz(Parameter("t"), 0)
        assert block_compiler.task_key(sym, (0,)) is None

    def test_key_matches_cache_key_used_by_compile_block(self):
        cache = CountingCache()
        block_compiler = BlockPulseCompiler(
            GmonDevice(line_topology(2)), SETTINGS, HYPER, cache
        )
        sub = QuantumCircuit(2).h(0).cx(0, 1)
        key = block_compiler.task_key(sub, (0, 1))
        block_compiler.compile_block(sub, (0, 1))
        assert cache.put_keys == [key]


def _two_distinct_blocks_circuit() -> QuantumCircuit:
    """Two *different* 2-qubit blocks sharing one control shape — the
    batched dispatch's target workload (dedup can't collapse them)."""
    circuit = QuantumCircuit(4)
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.h(2)
    circuit.cx(2, 3)
    circuit.rz(0.3, 3)
    return circuit


class TestBatchedDispatch:
    def _run(self, executor=None):
        # Warm start off: seeded blocks deliberately leave the batch (each
        # seed is per-target), and these fresh 2-qubit blocks would all get
        # KAK seeds — the batching path under test would never run.
        block_compiler = BlockPulseCompiler(
            GmonDevice(line_topology(4)),
            SETTINGS,
            HYPER,
            PulseCache(),
            warm_start=False,
        )
        pipeline = full_grape_pipeline(
            block_compiler, 2, executor or SerialExecutor()
        )
        return pipeline.run_many([_two_distinct_blocks_circuit()])

    def test_same_shape_representatives_batch(self):
        contexts, report = self._run()
        assert report.batched_groups == 1
        assert report.batched_blocks == 2
        assert report.dispatched_tasks == 2
        assert contexts[0].program is not None
        assert report.as_dict()["batched_blocks"] == 2

    def test_batched_run_matches_unbatched(self, threaded_executor):
        """The job route (an executor that does not prefer batching)
        compiles the same pulses."""
        import numpy as np

        batched, batched_report = self._run()
        serial, serial_report = self._run(threaded_executor)
        assert serial_report.batched_groups == 0
        assert serial_report.batched_blocks == 0
        assert batched[0].program.duration_ns == pytest.approx(
            serial[0].program.duration_ns, abs=1e-12
        )
        for ours, theirs in zip(
            batched[0].program.schedules, serial[0].program.schedules
        ):
            assert ours.qubits == theirs.qubits
            assert np.array_equal(ours.controls, theirs.controls)

    def test_pool_executor_keeps_mapped_dispatch(self, threaded_executor):
        """An executor that genuinely overlaps per-block maps
        (``prefers_batched = False``) would be serialized by stacking —
        batched dispatch must stand down."""
        assert threaded_executor.prefers_batched is False
        block_compiler = BlockPulseCompiler(
            GmonDevice(line_topology(4)), SETTINGS, HYPER, PulseCache()
        )
        pipeline = full_grape_pipeline(block_compiler, 2, threaded_executor)
        contexts, report = pipeline.run_many([_two_distinct_blocks_circuit()])
        assert report.batched_groups == 0
        assert report.batched_blocks == 0
        assert contexts[0].program is not None

    def test_perf_counters_record_batching(self):
        registry = get_perf_registry()
        before_groups = registry.counter("scheduler.batched_groups")
        before_blocks = registry.counter("scheduler.batched_blocks")
        self._run()
        assert registry.counter("scheduler.batched_groups") == before_groups + 1
        assert registry.counter("scheduler.batched_blocks") == before_blocks + 2


@pytest.fixture
def fail_first_search(monkeypatch):
    """Make the first block search raise; later searches run normally."""
    from repro.core import compiler

    search = compiler.search_job
    left = [1]

    def failing_search(job):
        if left[0] > 0:
            left[0] -= 1
            raise RuntimeError("representative block compilation failed")
        return search(job)

    monkeypatch.setattr(compiler, "search_job", failing_search)


def _blocked_context(circuit: QuantumCircuit) -> PipelineContext:
    context = PipelineContext(circuit=circuit)
    BindStage().run(context)
    BlockingStage(2).run(context)
    return context


class TestFailedRepresentative:
    def test_failure_caches_nothing_and_leaves_no_partial_results(
        self, fail_first_search
    ):
        """A failed representative must leave neither an entry nor a
        claim behind: duplicates (and later calls) must never receive a
        pulse that was never actually compiled, nor wait for one."""
        compiler = BlockPulseCompiler(
            GmonDevice(line_topology(2)), SETTINGS, HYPER, PulseCache()
        )
        scheduler = BlockScheduler(compiler)
        circuit = QuantumCircuit(2).h(0).cx(0, 1)
        contexts = [_blocked_context(circuit), _blocked_context(circuit)]
        with pytest.raises(RuntimeError):
            scheduler.run(contexts)
        # No context got results, and the cache holds nothing.
        assert all(context.block_results is None for context in contexts)
        assert len(compiler.cache) == 0

        # A retry on the same scheduler recompiles from scratch; a third
        # pass reuses what the retry cached.
        contexts = [_blocked_context(circuit), _blocked_context(circuit)]
        report = scheduler.run(contexts)
        assert report.dispatched_tasks == 1
        assert report.reused_blocks == 0
        assert len(compiler.cache) == 1
        assert all(context.block_results for context in contexts)
        assert scheduler.run([_blocked_context(circuit)]).reused_blocks == 1


class _WaitSignallingCache(PulseCache):
    """Sets ``waiting`` when a pass starts waiting for another's key."""

    def __init__(self):
        super().__init__()
        self.waiting = threading.Event()

    def wait(self, key):
        self.waiting.set()
        return super().wait(key)


class TestSingleFlight:
    """Two overlapping passes want one cold key: the first claims it, the
    second waits for the first's entry instead of searching again."""

    def _overlap(self, monkeypatch, fail_owner: bool):
        from repro.core import compiler as compiler_module

        cache = _WaitSignallingCache()
        compiler = BlockPulseCompiler(
            GmonDevice(line_topology(2)), SETTINGS, HYPER, cache
        )
        searching = threading.Event()
        searches = []
        search = compiler_module.search_job

        def gated_search(job):
            searches.append(job.key)
            if len(searches) == 1:
                # The owner's search: hold it until the other pass waits.
                searching.set()
                assert cache.waiting.wait(timeout=60)
                if fail_owner:
                    raise RuntimeError("owner's search failed")
            return search(job)

        monkeypatch.setattr(compiler_module, "search_job", gated_search)
        circuit = QuantumCircuit(2).h(0).cx(0, 1)
        owner_contexts = [_blocked_context(circuit)]
        errors = []

        def run_owner():
            try:
                BlockScheduler(compiler).run(owner_contexts)
            except RuntimeError as exc:
                errors.append(exc)

        owner = threading.Thread(target=run_owner)
        owner.start()
        assert searching.wait(timeout=60)
        contexts = [_blocked_context(circuit)]
        report = BlockScheduler(compiler).run(contexts)
        owner.join(timeout=60)
        assert not owner.is_alive()
        return owner_contexts, contexts, report, searches, errors

    def test_overlapping_passes_search_once(self, monkeypatch):
        owner, waiter, report, searches, errors = self._overlap(
            monkeypatch, fail_owner=False
        )
        assert not errors
        assert len(searches) == 1
        assert report.reused_blocks == 1 and report.dispatched_tasks == 0
        ours, theirs = owner[0].block_results[0], waiter[0].block_results[0]
        assert theirs.iterations == 0 and theirs.cache_hit
        assert theirs.duration_ns == ours.duration_ns
        assert theirs.schedule.controls.tobytes() == ours.schedule.controls.tobytes()

    def test_waiter_compiles_the_key_when_the_owner_fails(self, monkeypatch):
        owner, waiter, report, searches, errors = self._overlap(
            monkeypatch, fail_owner=True
        )
        assert len(errors) == 1 and owner[0].block_results is None
        assert len(searches) == 2
        assert report.reused_blocks == 0
        assert report.unique_blocks == 1 and report.dispatched_tasks == 1
        assert waiter[0].block_results[0].iterations > 0
        assert len(waiter[0].block_results) == 1

    def test_many_overlapping_passes_compile_each_key_once(self):
        """More passes than cores over one set of cold keys, with a short
        switch interval: a lost claim would compile some key twice."""
        import sys

        cache = CountingCache()
        compiler = BlockPulseCompiler(
            GmonDevice(line_topology(1)), SETTINGS, HYPER, cache
        )
        gates = [("s",), ("h",), ("x",), ("t",), ("h", "t"), ("x", "s")]
        reports = []
        barrier = threading.Barrier(8)

        def run():
            barrier.wait(timeout=60)
            contexts = [_single_qubit_context(*names) for names in gates]
            reports.append(BlockScheduler(compiler).run(contexts))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(reports) == 8
        assert len(cache.put_keys) == len(set(cache.put_keys)) == len(gates)
        assert sum(report.dispatched_tasks for report in reports) == len(gates)
        assert all(
            report.reused_blocks + report.unique_blocks == len(gates)
            for report in reports
        )
