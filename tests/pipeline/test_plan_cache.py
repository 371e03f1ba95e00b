"""The content-addressed plan cache: build, replay, equivalence, bounds."""

import numpy as np
import pytest

from repro.circuits import Parameter, QuantumCircuit
from repro.core.cache import PulseCache
from repro.core.compiler import BlockPulseCompiler
from repro.pipeline.plan import CompilationPlan, PlanCache, plan_key
from repro.pipeline.strategies import full_grape_pipeline
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

    def test_width_and_scope_separate(self):
        bc = _compiler()
        ansatz = _ansatz()
        assert plan_key(ansatz, 2, bc) != plan_key(ansatz, 3, bc)
        assert plan_key(ansatz, 2, bc, scope="a") != plan_key(
            ansatz, 2, bc, scope="b"
        )

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
            pipeline = full_grape_pipeline(bc, 2, None)
            contexts, _ = pipeline.run_many(
                [ansatz], [theta], plan_cache=plans, plan_scope="test"
            )
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
        assert plans.blocking_passes_skipped == 2
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

    def test_replay_interoperates_with_cross_call_reuse(self):
        """Plan replay + cross-call reuse: iteration 2 skips blocking
        *and* serves θ-independent blocks from the pulse cache."""
        ansatz = _ansatz()
        bc = _compiler()
        pipeline = full_grape_pipeline(bc, 2, None)
        plans = PlanCache()
        pipeline.run_many([ansatz], [[0.4]], plan_cache=plans)
        contexts, report = pipeline.run_many([ansatz], [[1.1]], plan_cache=plans)
        assert contexts[0].metadata["plan_cache"] == "hit"
        assert report.reused_blocks > 0


class TestNonPlannablePipelines:
    def test_plain_run_many_ignores_cache_with_slicer_or_isolation(self):
        """Strict/flexible stacks (isolate_parametrized, slicer) must not
        go through plans — their tasks depend on the binding."""
        from repro.pipeline.pipeline import CompilationPipeline
        from repro.pipeline.stages import (
            AssembleStage,
            BindStage,
            BlockingStage,
            PulseStage,
        )

        bc = _compiler()
        stages = [
            BindStage(),
            BlockingStage(max_width=2, isolate_parametrized=True),
            PulseStage(bc, parametrized_handler=lambda task: None),
            AssembleStage(fallback=False),
        ]
        pipeline = CompilationPipeline(stages)
        plans = PlanCache()
        ansatz = _ansatz()
        pipeline.run_many([ansatz], [[0.4]], plan_cache=plans)
        pipeline.run_many([ansatz], [[1.1]], plan_cache=plans)
        assert plans.hits == 0 and plans.misses == 0 and len(plans) == 0


class TestPlanCacheBounds:
    def test_lru_eviction(self):
        cache = PlanCache(max_entries=2)
        plan = CompilationPlan(key="k", num_qubits=1, blocks=())
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
        cache.insert("a", CompilationPlan(key="a", num_qubits=1, blocks=()))
        cache.lookup("a")
        cache.lookup("missing")
        cache.note_skip()
        stats = cache.as_dict()
        assert stats == {
            "entries": 1,
            "plan_hits": 1,
            "plan_misses": 1,
            "blocking_passes_skipped": 1,
            "evictions": 0,
        }
        cache.clear()
        assert len(cache) == 0
