"""Long-lived VariationalSession: cross-call block dedup and lifecycle."""

import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.parameters import Parameter
from repro.core import FullGrapeCompiler, PersistentPulseCache, PulseCache
from repro.core.compiler import BlockPulseCompiler
from repro.errors import PipelineError
from repro.perf import get_perf_registry
from repro.pipeline import BlockScheduler, SchedulerState, VariationalSession
from repro.pipeline.stages import BindStage, BlockingStage, PipelineContext
from repro.pulse.device import GmonDevice
from repro.pulse.grape.engine import GrapeHyperparameters, GrapeSettings
from repro.transpile.topology import line_topology

SETTINGS = GrapeSettings(dt_ns=0.5, target_fidelity=0.95)
HYPER = GrapeHyperparameters(0.05, 0.002, max_iterations=120)


class CountingCache(PulseCache):
    """Records every key GRAPE actually computed (put) for."""

    def __init__(self):
        super().__init__()
        self.put_keys = []

    def put(self, key, entry, target=None):
        self.put_keys.append(key)
        super().put(key, entry, target=target)


def _ansatz() -> QuantumCircuit:
    """Two identical fixed entangler tiles plus one θ-dependent tile."""
    circuit = QuantumCircuit(6)
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.h(2)
    circuit.cx(2, 3)
    circuit.rz(Parameter("theta"), 4)
    circuit.cx(4, 5)
    return circuit


def _session(cache=None, **kwargs) -> VariationalSession:
    return VariationalSession(
        device=GmonDevice(line_topology(6)),
        settings=SETTINGS,
        hyperparameters=HYPER,
        max_block_width=2,
        cache=cache if cache is not None else PulseCache(),
        **kwargs,
    )


class TestCrossCallReuse:
    def test_shared_fixed_blocks_grape_exactly_once_across_two_calls(self):
        """The acceptance contract: the same ansatz at two parameter sets,
        each shared fixed block dispatched to GRAPE exactly once across
        BOTH calls, asserted via scheduler counters and cache puts."""
        cache = CountingCache()
        session = _session(cache)
        ansatz = _ansatz()
        first = session.compile_parametrized(ansatz, [0.3])
        second = session.compile_parametrized(ansatz, [1.1])

        sched1 = first.metadata["scheduler"]
        sched2 = second.metadata["scheduler"]
        # Call 1: the h+cx tile appears twice (translated) → one dispatch;
        # the tile carrying Rz(θ=0.3) is its own unitary → one dispatch.
        assert sched1["dispatched_tasks"] == 2
        assert sched1["deduped_blocks"] == 1
        assert sched1["reused_blocks"] == 0
        # Call 2: both h+cx occurrences reuse call 1's pulse; only the new
        # θ=1.1 tile dispatches.
        assert sched2["reused_blocks"] == 2
        assert sched2["dispatched_tasks"] == 1
        assert sched2["deduped_blocks"] == 0
        # GRAPE ran once per unique block across the whole session: the
        # shared tile once, plus one θ tile per call.
        assert len(cache.put_keys) == 3
        assert len(set(cache.put_keys)) == 3

    def test_identical_repeat_call_dispatches_nothing(self):
        session = _session()
        circuit = QuantumCircuit(2).h(0).cx(0, 1)
        session.compile(circuit)
        repeat = session.compile(circuit)
        scheduler = repeat.metadata["scheduler"]
        assert scheduler["dispatched_tasks"] == 0
        assert scheduler["reused_blocks"] == scheduler["total_blocks"]
        assert repeat.runtime_iterations == 0

    def test_reuse_is_never_worse_than_gate_based(self):
        session = _session()
        ansatz = _ansatz()
        first = session.compile_parametrized(ansatz, [0.2])
        second = session.compile_parametrized(ansatz, [0.2])
        assert second.pulse_duration_ns == pytest.approx(first.pulse_duration_ns)

    def test_single_circuit_session_matches_plain_compile(self):
        circuit = QuantumCircuit(4).h(0).cx(0, 1).h(2).cx(2, 3)
        via_session = _session().compile(circuit)
        plain = FullGrapeCompiler(
            device=GmonDevice(line_topology(4)),
            settings=SETTINGS,
            hyperparameters=HYPER,
            max_block_width=2,
            cache=PulseCache(),
        ).compile(circuit)
        assert via_session.pulse_duration_ns == pytest.approx(
            plain.pulse_duration_ns
        )
        assert via_session.blocks_compiled == plain.blocks_compiled

    def test_perf_counter_records_cross_call_reuse(self):
        registry = get_perf_registry()
        before = registry.counter("scheduler.reused_blocks")
        session = _session()
        circuit = QuantumCircuit(2).h(0).cx(0, 1)
        session.compile(circuit)
        session.compile(circuit)
        assert registry.counter("scheduler.reused_blocks") == before + 1


class TestBatchAndStats:
    def test_compile_batch_mixes_batch_dedup_and_cross_call_reuse(self):
        session = _session()
        circuit = QuantumCircuit(2).h(0).cx(0, 1)
        session.compile_batch([circuit, circuit])
        results = session.compile_batch([circuit, circuit])
        scheduler = results[0].metadata["scheduler"]
        assert scheduler["reused_blocks"] == 2
        stats = session.stats()
        assert stats["compile_calls"] == 2
        assert stats["circuits_compiled"] == 4
        assert stats["dispatched_blocks"] == 1
        assert stats["known_blocks"] == 1

    def test_empty_batch(self):
        session = _session()
        assert session.compile_batch([]) == []
        assert session.compile_calls == 0

    def test_results_carry_session_metadata(self):
        session = _session()
        result = session.compile(QuantumCircuit(2).h(0).cx(0, 1))
        assert result.method == "session"
        assert result.metadata["session"]["known_blocks"] == 1
        assert "batch_wall_time_s" in result.metadata

    def test_reset_forgets_dedup_state_but_keeps_cache(self):
        cache = CountingCache()
        session = _session(cache)
        circuit = QuantumCircuit(2).h(0).cx(0, 1)
        session.compile(circuit)
        session.reset()
        assert len(session.state) == 0
        result = session.compile(circuit)
        # The scheduler dispatches again, but the pulse cache still hits:
        # no second GRAPE run.
        assert result.metadata["scheduler"]["reused_blocks"] == 0
        assert len(cache.put_keys) == 1


class TestSchedulerStateBound:
    def test_lru_bound_evicts_one_shot_keys_and_keeps_hot_ones(self):
        """A variational run records a never-again-seen key per θ binding;
        the LRU bound must shed those while the re-touched fixed blocks
        survive."""
        state = SchedulerState(max_entries=3)
        state.record(("hot",), object())
        for i in range(3):
            state.record((f"cold-{i}",), object())
            assert state.lookup(("hot",)) is not None  # re-touch the hot key
        state.record(("cold-final",), object())
        assert len(state) == 3
        assert ("hot",) in state.seen
        assert state.evictions > 0
        assert state.lookup(("cold-0",)) is None

    def test_session_state_respects_bound_across_compiles(self):
        session = _session()
        session.state.max_entries = 1
        circuit_a = QuantumCircuit(2).h(0).cx(0, 1)
        circuit_b = QuantumCircuit(2).h(0).cx(0, 1).h(0)
        session.compile(circuit_a)
        session.compile(circuit_b)
        assert len(session.state) == 1
        # The evicted block recompiles through the cache, not the state.
        result = session.compile(circuit_a)
        assert result.metadata["scheduler"]["reused_blocks"] == 0


class TestLifecycle:
    def test_close_is_idempotent_and_blocks_further_compiles(self):
        session = _session()
        session.compile(QuantumCircuit(2).h(0).cx(0, 1))
        session.close()
        session.close()
        with pytest.raises(PipelineError):
            session.compile(QuantumCircuit(2).h(0).cx(0, 1))

    def test_context_manager_closes(self):
        with _session() as session:
            session.compile(QuantumCircuit(2).h(0).cx(0, 1))
        with pytest.raises(PipelineError):
            session.compile(QuantumCircuit(2).h(0).cx(0, 1))

    def test_library_property_exposes_disk_tier(self, tmp_path):
        session = _session(PersistentPulseCache(tmp_path))
        assert session.library is not None
        assert session.library.directory == tmp_path
        assert _session().library is None

    def test_device_grows_with_wider_circuits(self):
        session = VariationalSession(
            settings=SETTINGS, hyperparameters=HYPER, max_block_width=2
        )
        session.compile(QuantumCircuit(2).h(0).cx(0, 1))
        assert session.device.num_qubits >= 2
        session.compile(QuantumCircuit(4).h(0).cx(0, 1).h(2).cx(2, 3))
        assert session.device.num_qubits >= 4


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
    def test_failure_records_no_stale_state_and_no_partial_results(
        self, fail_first_search
    ):
        """A failed representative must not leave dedup state behind:
        duplicates (and later calls) must never receive a pulse that was
        never actually compiled."""
        compiler = BlockPulseCompiler(
            GmonDevice(line_topology(2)), SETTINGS, HYPER, PulseCache()
        )
        state = SchedulerState()
        scheduler = BlockScheduler(compiler, state=state)
        circuit = QuantumCircuit(2).h(0).cx(0, 1)
        contexts = [_blocked_context(circuit), _blocked_context(circuit)]
        with pytest.raises(RuntimeError):
            scheduler.run(contexts)
        # No context got results, and the state remembers nothing.
        assert all(context.block_results is None for context in contexts)
        assert len(state) == 0

        # A retry on the same scheduler recompiles from scratch and only
        # then records the block.
        contexts = [_blocked_context(circuit), _blocked_context(circuit)]
        report = scheduler.run(contexts)
        assert report.dispatched_tasks == 1
        assert report.reused_blocks == 0
        assert len(state) == 1
        assert all(context.block_results for context in contexts)
