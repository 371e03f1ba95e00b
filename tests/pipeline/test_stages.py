"""Stage composition and ordering contracts of the compilation pipeline."""

import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.parameters import Parameter
from repro.core.compiler import BlockPulseCompiler
from repro.errors import CompilationError, PipelineError
from repro.pipeline import (
    AssembleStage,
    BindStage,
    BlockingStage,
    CompilationPipeline,
    GateScheduleStage,
    PulseStage,
    TranspileStage,
    full_grape_pipeline,
    gate_based_pipeline,
)
from repro.transpile.passes import PassManager


def _ansatz():
    theta = Parameter("theta_0")
    qc = QuantumCircuit(2, name="ansatz")
    qc.h(0).h(1).cx(0, 1)
    qc.rz(theta, 1)
    qc.cx(0, 1)
    return qc


class TestPipelineShape:
    def test_gate_based_stage_order(self):
        assert gate_based_pipeline().stage_names == (
            "bind",
            "gate-schedule",
            "assemble",
        )

    def test_full_grape_stage_order(self, two_qubit_device, fast_settings, fast_hyper):
        compiler = BlockPulseCompiler(two_qubit_device, fast_settings, fast_hyper)
        pipeline = full_grape_pipeline(compiler, max_width=2)
        assert pipeline.stage_names == ("bind", "block", "pulse", "assemble")

    def test_transpile_stage_prepends(self):
        pipeline = gate_based_pipeline(pass_manager=PassManager())
        assert pipeline.stage_names[0] == "transpile"

    def test_append_chains(self):
        pipeline = CompilationPipeline([BindStage()])
        pipeline.append(GateScheduleStage()).append(AssembleStage(fallback=False))
        assert pipeline.stage_names == ("bind", "gate-schedule", "assemble")

    def test_non_stage_rejected(self):
        with pytest.raises(PipelineError):
            CompilationPipeline([object()])
        with pytest.raises(PipelineError):
            CompilationPipeline().append(42)

    def test_describe(self):
        described = gate_based_pipeline().describe()
        assert described["pipeline"] == "gate"
        assert described["stages"] == ["bind", "gate-schedule", "assemble"]


class TestStageOrdering:
    def test_timings_follow_declared_order(self):
        pipeline = gate_based_pipeline()
        context = pipeline.run(_ansatz(), values=[0.4])
        assert tuple(name for name, _ in context.stage_timings) == pipeline.stage_names
        assert all(seconds >= 0 for _, seconds in context.stage_timings)
        assert set(context.stage_timing_dict()) == set(pipeline.stage_names)

    def test_pulse_before_blocking_fails(self, two_qubit_device, fast_settings, fast_hyper):
        compiler = BlockPulseCompiler(two_qubit_device, fast_settings, fast_hyper)
        broken = CompilationPipeline([BindStage(), PulseStage(compiler)])
        with pytest.raises(PipelineError):
            broken.run(_ansatz(), values=[0.1])

    def test_pulse_stage_runs_only_as_a_scheduler_pass(
        self, two_qubit_device, fast_settings, fast_hyper
    ):
        """``run`` on a pipeline with a pulse stage is ``run_many`` of one
        circuit; the stage has no compile path of its own."""
        compiler = BlockPulseCompiler(two_qubit_device, fast_settings, fast_hyper)
        context = full_grape_pipeline(compiler, 2).run(_ansatz(), values=[0.1])
        assert context.metadata["scheduler"]["circuits"] == 1
        assert [name for name, _ in context.stage_timings] == [
            "bind",
            "block",
            "pulse",
            "assemble",
        ]
        with pytest.raises(PipelineError, match="BlockScheduler"):
            PulseStage(compiler).run(context)

    def test_assemble_before_pulse_fails(self):
        broken = CompilationPipeline([BindStage(), AssembleStage()])
        with pytest.raises(PipelineError):
            broken.run(_ansatz(), values=[0.1])

    def test_bind_rejects_unbound(self):
        with pytest.raises(CompilationError):
            gate_based_pipeline().run(_ansatz())


class TestBlockingStage:
    def test_plain_blocking_covers_all_instructions(self):
        circuit = _ansatz().bind_parameters([0.3])
        context = CompilationPipeline([BindStage(), BlockingStage(2)]).run(circuit)
        assert sum(len(t.subcircuit) for t in context.tasks) == len(circuit)
        assert all(t.kind == "fixed" for t in context.tasks)
        assert context.metadata["blocks"] == len(context.tasks)

    def test_isolating_parametrized_gates(self):
        circuit = _ansatz()
        context = CompilationPipeline(
            [BlockingStage(2, isolate_parametrized=True)]
        ).run(circuit)
        kinds = [t.kind for t in context.tasks]
        assert kinds.count("parametrized") == 1
        isolated = next(t for t in context.tasks if t.kind == "parametrized")
        assert isolated.instruction.gate.name == "rz"
        assert isolated.subcircuit is None

    def test_slicer_mode(self):
        from repro.core.slicing import flexible_slices

        context = CompilationPipeline(
            [BlockingStage(2, slicer=flexible_slices)]
        ).run(_ansatz())
        assert any(t.kind == "parametrized" for t in context.tasks)
        # Slices blocked independently: one BlockedCircuit per slice.
        assert len(context.blocked) == len(flexible_slices(_ansatz()))

    def test_slicer_and_isolate_exclusive(self):
        from repro.core.slicing import flexible_slices

        with pytest.raises(PipelineError):
            BlockingStage(2, slicer=flexible_slices, isolate_parametrized=True)

    def test_multi_parameter_gate_rejected(self):
        a, b = Parameter("a"), Parameter("b")
        qc = QuantumCircuit(1).rz(a + b, 0)
        with pytest.raises(CompilationError):
            CompilationPipeline([BlockingStage(1, isolate_parametrized=True)]).run(qc)


class TestTranspileStage:
    def test_pass_manager_applied(self):
        ran = []

        def tag_pass(circuit):
            ran.append(True)
            return circuit

        pipeline = CompilationPipeline(
            [TranspileStage(PassManager([tag_pass])), BindStage()]
        )
        pipeline.run(QuantumCircuit(1).h(0))
        assert ran == [True]
