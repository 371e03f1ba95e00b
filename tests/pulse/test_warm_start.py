"""Warm-started GRAPE: KAK seeds, neighbor seeding, and the best-of guard."""

import numpy as np
import pytest
import scipy.linalg

from repro.circuits.circuit import QuantumCircuit
from repro.core import PulseCache
from repro.core.compiler import BlockPulseCompiler, circuit_unitary
from repro.perf import get_perf_registry
from repro.pulse.device import GmonDevice
from repro.pulse.grape import GrapeHyperparameters, GrapeSettings
from repro.pulse.grape.seeding import (
    kak_seed_controls,
    kak_seed_schedule,
    warm_start_telemetry,
)
from repro.pulse.hamiltonian import build_control_set
from repro.pulse.schedule import PulseSchedule
from repro.linalg import haar_random_unitary
from repro.transpile.topology import line_topology

SETTINGS = GrapeSettings(dt_ns=0.5, target_fidelity=0.95)
HYPER = GrapeHyperparameters(
    learning_rate=0.05, decay_rate=0.002, max_iterations=120
)


@pytest.fixture
def pair_cs():
    return build_control_set(GmonDevice(line_topology(2)), [0, 1])


def _propagate(control_set, controls: np.ndarray, dt_ns: float) -> np.ndarray:
    """Exact piecewise-constant propagator of a control array."""
    dim = control_set.dim
    u = np.eye(dim, dtype=complex)
    for k in range(controls.shape[1]):
        h = control_set.drift.astype(complex).copy()
        for c in range(control_set.num_controls):
            h += controls[c, k] * control_set.operators[c]
        u = scipy.linalg.expm(-1j * dt_ns * h) @ u
    return u


def _seed_fidelity(control_set, target, num_steps, dt_ns) -> float:
    controls = kak_seed_controls(control_set, target, num_steps, dt_ns)
    assert controls is not None
    u = _propagate(control_set, controls, dt_ns)
    dim = control_set.dim
    return abs(np.trace(target.conj().T @ u)) / dim


class TestKAKSeed:
    @pytest.mark.parametrize("seed", range(4))
    def test_seed_lands_near_target(self, pair_cs, seed):
        """The analytic seed must replay to the target almost exactly —
        it is a decomposition, not a guess."""
        target = haar_random_unitary(4, seed=np.random.default_rng(seed))
        assert _seed_fidelity(pair_cs, target, 200, 0.5) > 0.999

    def test_seed_respects_amplitude_bounds(self, pair_cs):
        target = haar_random_unitary(4, seed=np.random.default_rng(9))
        controls = kak_seed_controls(pair_cs, target, 120, 0.5)
        for row, bound in zip(controls, pair_cs.max_amplitudes):
            assert np.abs(row).max() <= bound + 1e-9

    def test_seed_shape_matches_request(self, pair_cs):
        target = haar_random_unitary(4, seed=np.random.default_rng(10))
        controls = kak_seed_controls(pair_cs, target, 75, 0.5)
        assert controls.shape == (pair_cs.num_controls, 75)

    def test_schedule_wrapper_tags_source(self, pair_cs):
        target = haar_random_unitary(4, seed=np.random.default_rng(11))
        schedule = kak_seed_schedule(pair_cs, target, 80, 0.5)
        assert isinstance(schedule, PulseSchedule)
        assert schedule.source == "kak-seed"
        assert schedule.dt_ns == 0.5

    def test_single_qubit_has_no_kak_seed(self):
        cs = build_control_set(GmonDevice(line_topology(2)), [0])
        target = haar_random_unitary(2, seed=np.random.default_rng(12))
        assert kak_seed_controls(cs, target, 50, 0.5) is None


def _block(angle: float) -> QuantumCircuit:
    circuit = QuantumCircuit(2).h(0).cx(0, 1)
    circuit.rz(angle, 1)
    return circuit


def _compiler(**kwargs) -> BlockPulseCompiler:
    return BlockPulseCompiler(
        GmonDevice(line_topology(2)), SETTINGS, HYPER, PulseCache(), **kwargs
    )


class TestNeighborSeeding:
    def test_near_miss_block_seeds_from_cached_neighbor(self):
        compiler = _compiler()
        perf = get_perf_registry()
        compiler.compile_block(_block(0.3), (0, 1))
        before = perf.counter("grape.warm_start.neighbor_seeds")
        outcome = compiler.compile_block(_block(0.31), (0, 1))
        assert perf.counter("grape.warm_start.neighbor_seeds") == before + 1
        assert outcome.schedule is not None

    def test_neighbor_seed_cuts_iterations(self):
        """The acceptance bar: a neighbor-seeded compile converges in no
        more iterations than the same block cold."""
        warm = _compiler()
        warm.compile_block(_block(0.3), (0, 1))
        seeded = warm.compile_block(_block(0.32), (0, 1))

        cold = _compiler(warm_start=False)
        cold.compile_block(_block(0.3), (0, 1))
        unseeded = cold.compile_block(_block(0.32), (0, 1))

        assert seeded.iterations <= unseeded.iterations
        assert seeded.fidelity >= SETTINGS.target_fidelity

    def test_distance_threshold_respected(self, monkeypatch):
        monkeypatch.setattr("repro.core.compiler.WARM_START_MAX_DIST", 1e-6)
        compiler = _compiler()
        perf = get_perf_registry()
        compiler.compile_block(_block(0.3), (0, 1))
        before = perf.counter("grape.warm_start.neighbor_seeds")
        # 0.3 vs 1.2 rad is far outside a 1e-6 distance budget.
        compiler.compile_block(_block(1.2), (0, 1))
        assert perf.counter("grape.warm_start.neighbor_seeds") == before

    def test_disabled_compiler_never_looks_up(self):
        compiler = _compiler(warm_start=False)
        perf = get_perf_registry()
        before = perf.counter("grape.warm_start.lookups")
        compiler.compile_block(_block(0.3), (0, 1))
        compiler.compile_block(_block(0.31), (0, 1))
        assert perf.counter("grape.warm_start.lookups") == before


class TestBestOfGuard:
    def test_bad_seed_never_beats_cold(self, monkeypatch):
        """The asserted guard: force a terrible seed and the final pulse
        must still match what a cold compile achieves."""
        reference = _compiler(warm_start=False).compile_block(
            _block(0.3), (0, 1)
        )

        compiler = _compiler()

        def junk_seed(key, target, control_set, gate_ns):
            steps = 4  # absurdly short, content-free
            return PulseSchedule(
                qubits=control_set.qubits,
                dt_ns=SETTINGS.dt_ns,
                controls=np.zeros((control_set.num_controls, steps)),
                channel_names=tuple(ch.name for ch in control_set.channels),
                source="junk",
            )

        monkeypatch.setattr(compiler, "_find_seed", junk_seed)
        outcome = compiler.compile_block(_block(0.3), (0, 1))
        assert outcome.fidelity >= reference.fidelity - 1e-9
        assert outcome.duration_ns <= reference.duration_ns + 1e-9

    def test_rejection_is_counted(self, monkeypatch):
        perf = get_perf_registry()
        compiler = _compiler()

        def junk_seed(key, target, control_set, gate_ns):
            return PulseSchedule(
                qubits=control_set.qubits,
                dt_ns=SETTINGS.dt_ns,
                controls=np.zeros((control_set.num_controls, 1)),
                channel_names=tuple(ch.name for ch in control_set.channels),
                source="junk",
            )

        monkeypatch.setattr(compiler, "_find_seed", junk_seed)
        accepted = perf.counter("grape.warm_start.accepted")
        rejected = perf.counter("grape.warm_start.rejected")
        compiler.compile_block(_block(0.3), (0, 1))
        moved = (
            perf.counter("grape.warm_start.accepted")
            + perf.counter("grape.warm_start.rejected")
            - accepted
            - rejected
        )
        assert moved == 1


class TestTelemetry:
    def test_warm_start_telemetry_keys(self):
        data = warm_start_telemetry()
        assert set(data) == {
            "lookups",
            "neighbor_seeds",
            "kak_seeds",
            "no_seed",
            "accepted",
            "rejected",
            "seeded_iterations",
            "cold_rerun_iterations",
            "healed_entries",
            "ranked",
            "rechecked",
            "abandoned_descents",
            "abandoned_iterations",
        }

    def test_service_stats_include_warm_start(self):
        from repro.service import CompilationService

        with CompilationService() as service:
            assert "warm_start" in service.stats()

    def test_scheduler_report_counts_warm_starts(self):
        from repro.pipeline import SerialExecutor
        from repro.pipeline.scheduler import BlockScheduler
        from repro.pipeline.strategies import full_grape_pipeline

        device = GmonDevice(line_topology(2))
        compiler = BlockPulseCompiler(device, SETTINGS, HYPER, PulseCache())
        pipeline = full_grape_pipeline(compiler, 2)
        scheduler = BlockScheduler(compiler, SerialExecutor())
        _, report = pipeline.run_many([_block(0.3)], scheduler=scheduler)
        # A fresh 2-qubit block always warm-starts (KAK seed at minimum).
        assert report.warm_started_blocks == 1
        assert report.as_dict()["warm_started_blocks"] == 1


class TestExecutorInvariance:
    def test_warm_start_results_do_not_depend_on_executor(
        self, threaded_executor
    ):
        """Two near-miss blocks in one circuit: a serial map would let the
        second seed from the first without the freeze.  Pulses must be
        identical under serial and threaded executors."""
        from repro.pipeline import SerialExecutor
        from repro.pipeline.strategies import full_grape_pipeline

        def compile_with(executor):
            device = GmonDevice(line_topology(4))
            compiler = BlockPulseCompiler(device, SETTINGS, HYPER, PulseCache())
            pipeline = full_grape_pipeline(compiler, 2, executor=executor)
            circuit = QuantumCircuit(4)
            circuit.h(0)
            circuit.cx(0, 1)
            circuit.rz(0.3, 1)
            circuit.h(2)
            circuit.cx(2, 3)
            circuit.rz(0.31, 3)
            return pipeline.run(circuit).program

        serial = compile_with(SerialExecutor())
        threaded = compile_with(threaded_executor)
        assert serial.duration_ns == threaded.duration_ns
        for ours, theirs in zip(serial.schedules, threaded.schedules):
            assert np.array_equal(ours.controls, theirs.controls)
