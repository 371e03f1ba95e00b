"""The content-addressed plan cache: build, replay, equivalence, bounds."""

import numpy as np
import pytest

from repro.circuits import Parameter, QuantumCircuit
from repro.core.cache import PulseCache
from repro.core.compiler import BlockPulseCompiler
from repro.errors import PipelineError
from repro.pipeline.stages import lookup_program
from repro.pipeline.plan import ISOLATE, PLAIN, CompilationPlan, PlanCache, plan_key
from repro.pipeline.strategies import full_grape_pipeline, strict_precompile_pipeline
from repro.pulse.device import GmonDevice
from repro.pulse.grape.engine import GrapeHyperparameters, GrapeSettings


def _ansatz():
    theta = Parameter("theta_0")
    circuit = QuantumCircuit(4, name="ansatz")
    # One θ-independent entangler tile and one θ-dependent rotation.
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.cx(2, 3)
    circuit.rz(theta, 1)
    return circuit


def _compiler(num_qubits=4):
    return BlockPulseCompiler(
        GmonDevice.grid_for(num_qubits),
        GrapeSettings(dt_ns=0.5, target_fidelity=0.95),
        GrapeHyperparameters(learning_rate=0.05, decay_rate=0.002, max_iterations=60),
        PulseCache(),
    )


def _programs_equal(a, b) -> bool:
    return a.duration_ns == b.duration_ns and all(
        np.array_equal(x.controls, y.controls)
        for x, y in zip(a.schedules, b.schedules)
    )


class TestPlanKey:
    def test_binding_independent(self):
        bc = _compiler()
        ansatz = _ansatz()
        assert plan_key(ansatz, 2, bc) == plan_key(ansatz, 2, bc)

    def test_width_and_mode_separate(self):
        bc = _compiler()
        ansatz = _ansatz()
        assert plan_key(ansatz, 2, bc) != plan_key(ansatz, 3, bc)
        assert plan_key(ansatz, 2, bc) == plan_key(ansatz, 2, bc, PLAIN)
        assert plan_key(ansatz, 2, bc, PLAIN) != plan_key(ansatz, 2, bc, ISOLATE)

    def test_device_and_settings_separate(self):
        ansatz = _ansatz()
        a = _compiler()
        b = BlockPulseCompiler(
            GmonDevice.grid_for(4, levels=3),
            a.settings,
            a.hyperparameters,
            a.cache,
        )
        c = BlockPulseCompiler(
            a.device,
            GrapeSettings(dt_ns=0.25, target_fidelity=0.95),
            a.hyperparameters,
            a.cache,
        )
        keys = {plan_key(ansatz, 2, bc) for bc in (a, b, c)}
        assert len(keys) == 3


class TestReplayEquivalence:
    """A plan-replayed compile is bit-identical to a cold one."""

    @pytest.fixture(scope="class")
    def results(self):
        ansatz = _ansatz()
        thetas = [[0.4], [1.1], [0.4]]
        # Cold reference: no plan cache, fresh state per iteration.
        cold = []
        for theta in thetas:
            bc = _compiler()
            pipeline = full_grape_pipeline(bc, 2, None)
            contexts, _ = pipeline.run_many([ansatz], [theta])
            cold.append(contexts[0].program)
        # Hot path: shared plan cache (fresh pulse cache per iteration, to
        # isolate the plan cache's contribution).
        plans = PlanCache()
        hot = []
        for theta in thetas:
            bc = _compiler()
            pipeline = full_grape_pipeline(bc, 2, None, plan_cache=plans)
            contexts, _ = pipeline.run_many([ansatz], [theta])
            hot.append(contexts[0])
        return cold, hot, plans

    def test_programs_identical(self, results):
        cold, hot, _ = results
        for reference, context in zip(cold, hot):
            assert _programs_equal(reference, context.program)

    def test_blocking_ran_once(self, results):
        _, _, plans = results
        assert plans.misses == 1
        assert plans.hits == 2
        assert len(plans) == 1

    def test_hit_contexts_are_marked(self, results):
        _, hot, _ = results
        assert "plan_cache" not in hot[0].metadata
        assert hot[1].metadata["plan_cache"] == "hit"
        assert hot[2].metadata["plan_cache"] == "hit"

    def test_replayed_tasks_carry_keys(self, results):
        """θ-independent blocks replay with their cached dedup key;
        θ-dependent blocks leave key computation to the scheduler."""
        _, hot, plans = results
        plan = next(iter(plans.plans.values()))
        parametrized = [spec.parametrized for spec in plan.blocks]
        assert any(parametrized) and not all(parametrized)
        for spec, task in zip(plan.blocks, hot[1].tasks):
            if spec.parametrized:
                assert not task.dedup_key_known
            else:
                assert task.dedup_key_known
                assert task.dedup_key == spec.dedup_key

    def test_hits_carry_the_recorded_gate_based_duration(self, results):
        """The plan records the lookup-table duration once; every replay
        hands it to the assemble stage, which then needs no lookup
        program unless it falls back."""
        _, hot, plans = results
        plan = next(iter(plans.plans.values()))
        assert plan.gate_based_ns == hot[0].gate_based_ns
        for context in hot:
            assert context.gate_based_ns == lookup_program(context.working).duration_ns

    def test_replay_interoperates_with_cross_call_reuse(self):
        """Plan replay + cross-call reuse: iteration 2 skips blocking
        *and* serves θ-independent blocks from the pulse cache."""
        ansatz = _ansatz()
        bc = _compiler()
        plans = PlanCache()
        pipeline = full_grape_pipeline(bc, 2, None, plan_cache=plans)
        pipeline.run_many([ansatz], [[0.4]])
        contexts, report = pipeline.run_many([ansatz], [[1.1]])
        assert contexts[0].metadata["plan_cache"] == "hit"
        assert report.reused_blocks > 0


def _task_view(task):
    """What the scheduler and the strict runtime read from one task."""
    return (
        task.kind,
        tuple(task.device_qubits),
        task.local_index,
        task.instruction,
        None if task.subcircuit is None else task.subcircuit.content_fingerprint(),
    )


class TestIsolateReplay:
    """Strict partial compilation's isolate-θ blocking replays too."""

    def test_replayed_tasks_match_cold_blocking(self):
        ansatz = _ansatz()
        cold_pipeline = strict_precompile_pipeline(_compiler(), lambda task: None, 2)
        (cold,), _ = cold_pipeline.run_many([ansatz])
        plans = PlanCache()
        hot = []
        for _ in range(2):
            pipeline = strict_precompile_pipeline(
                _compiler(), lambda task: None, 2, plan_cache=plans
            )
            (context,), _ = pipeline.run_many([ansatz])
            hot.append(context)
        assert (plans.misses, plans.hits) == (1, 1)
        assert hot[1].metadata["plan_cache"] == "hit"
        for context in hot:
            assert [_task_view(t) for t in context.tasks] == [
                _task_view(t) for t in cold.tasks
            ]
            assert context.gate_based_ns == lookup_program(ansatz).duration_ns
        kinds = [task.kind for task in hot[1].tasks]
        assert "parametrized" in kinds and "fixed" in kinds
        for task in hot[1].tasks:
            # Fixed blocks arrive pre-keyed; θ singletons carry the
            # request's own instruction and need no key.
            assert task.dedup_key_known == (task.kind == "fixed")

    def test_plain_and_isolate_plans_never_share(self):
        ansatz = _ansatz()
        plans = PlanCache()
        full_grape_pipeline(_compiler(), 2, None, plan_cache=plans).run_many(
            [ansatz], [[0.4]]
        )
        strict_precompile_pipeline(
            _compiler(), lambda task: None, 2, plan_cache=plans
        ).run_many([ansatz])
        assert (plans.misses, plans.hits, len(plans)) == (2, 0, 2)
        modes = sorted(plan.isolate for plan in plans.plans.values())
        assert modes == [False, True]


class TestNonPlannablePipelines:
    def test_slicer_blocking_refuses_a_plan_cache(self):
        """Flexible's slicer blocking keeps blocking every request."""
        from repro.pipeline.stages import BlockingStage

        with pytest.raises(PipelineError):
            BlockingStage(
                2,
                slicer=lambda circuit: [],
                plan_cache=PlanCache(),
                block_compiler=_compiler(),
            )
        with pytest.raises(PipelineError):
            BlockingStage(2, plan_cache=PlanCache())

    def test_transpile_first_pipeline_is_not_wired(self):
        """A transpile stage rewrites the circuit after fingerprinting, so
        the factory leaves such a pipeline's blocking unplanned."""
        from repro.transpile.passes import PassManager

        plans = PlanCache()
        pipeline = full_grape_pipeline(
            _compiler(), 2, None, pass_manager=PassManager([]), plan_cache=plans
        )
        blocking = next(s for s in pipeline.stages if s.name == "block")
        assert blocking.plan_cache is None
        pipeline.run_many([_ansatz()], [[0.4]])
        assert plans.hits == 0 and plans.misses == 0 and len(plans) == 0


class TestPlanCacheBounds:
    def test_lru_eviction(self):
        cache = PlanCache(max_entries=2)
        plan = CompilationPlan(key="k", blocks=())
        cache.insert("a", plan)
        cache.insert("b", plan)
        cache.lookup("a")  # refresh: "b" is now the LRU entry
        cache.insert("c", plan)
        assert cache.lookup("b") is None
        assert cache.lookup("a") is not None
        assert cache.lookup("c") is not None
        assert cache.evictions == 1

    def test_clear_and_stats(self):
        cache = PlanCache()
        cache.insert("a", CompilationPlan(key="a", blocks=()))
        cache.lookup("a")
        cache.lookup("missing")
        stats = cache.as_dict()
        assert stats == {
            "entries": 1,
            "plan_hits": 1,
            "plan_misses": 1,
            "evictions": 0,
        }
        cache.clear()
        assert len(cache) == 0
