"""Batch precompile entry points: fixed blocks shared across ansätze."""

import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.parameters import Parameter
from repro.core import FlexiblePartialCompiler, PulseCache, StrictPartialCompiler
from repro.errors import CompilationError
from repro.pipeline import SchedulerState
from repro.pulse.device import GmonDevice
from repro.pulse.grape.engine import GrapeHyperparameters, GrapeSettings
from repro.transpile.topology import line_topology

SETTINGS = GrapeSettings(dt_ns=0.5, target_fidelity=0.95)
HYPER = GrapeHyperparameters(0.05, 0.002, max_iterations=120)


class CountingCache(PulseCache):
    def __init__(self):
        super().__init__()
        self.put_keys = []

    def put(self, key, entry, target=None):
        self.put_keys.append(key)
        super().put(key, entry, target=target)


def _ansatz(parameter_name: str) -> QuantumCircuit:
    """One fixed entangler + one θ gate — all variants share the entangler."""
    circuit = QuantumCircuit(2)
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.rz(Parameter(parameter_name), 1)
    circuit.cx(0, 1)
    return circuit


class TestStrictPrecompileMany:
    def test_fixed_blocks_shared_across_ansatze(self):
        cache = CountingCache()
        compilers = StrictPartialCompiler.precompile_many(
            [_ansatz("a"), _ansatz("b"), _ansatz("c")],
            device=GmonDevice(line_topology(2)),
            settings=SETTINGS,
            hyperparameters=HYPER,
            max_block_width=2,
            cache=cache,
        )
        assert len(compilers) == 3
        scheduler = compilers[0].report.metadata["scheduler"]
        # Each ansatz isolates to h+cx | Rz(θ) | cx: the h+cx and cx fixed
        # blocks are identical across all three ansätze.
        assert scheduler["circuits"] == 3
        assert scheduler["deduped_blocks"] > 0
        # GRAPE ran once per *unique* fixed block across the whole batch.
        assert len(cache.put_keys) == len(set(cache.put_keys))
        assert len(cache.put_keys) == scheduler["unique_blocks"]

    def test_batch_compilers_compile_like_solo_precompiles(self):
        batch = StrictPartialCompiler.precompile_many(
            [_ansatz("a"), _ansatz("b")],
            device=GmonDevice(line_topology(2)),
            settings=SETTINGS,
            hyperparameters=HYPER,
            max_block_width=2,
        )
        solo = StrictPartialCompiler.precompile(
            _ansatz("a"),
            device=GmonDevice(line_topology(2)),
            settings=SETTINGS,
            hyperparameters=HYPER,
            max_block_width=2,
        )
        assert batch[0].compile([0.4]).pulse_duration_ns == pytest.approx(
            solo.compile([0.4]).pulse_duration_ns
        )

    def test_shared_state_extends_dedup_across_calls(self):
        state = SchedulerState()
        device = GmonDevice(line_topology(2))
        first = StrictPartialCompiler.precompile_many(
            [_ansatz("a")],
            device=device,
            settings=SETTINGS,
            hyperparameters=HYPER,
            max_block_width=2,
            state=state,
        )
        assert first[0].report.metadata["scheduler"]["reused_blocks"] == 0
        second = StrictPartialCompiler.precompile_many(
            [_ansatz("b")],
            device=device,
            settings=SETTINGS,
            hyperparameters=HYPER,
            max_block_width=2,
            state=state,
        )
        scheduler = second[0].report.metadata["scheduler"]
        assert scheduler["reused_blocks"] > 0
        assert scheduler["unique_blocks"] == 0

    def test_empty_batch(self):
        assert StrictPartialCompiler.precompile_many([]) == []


class TestFlexiblePrecompileMany:
    def test_batch_returns_working_compilers(self):
        compilers = FlexiblePartialCompiler.precompile_many(
            [_ansatz("a"), _ansatz("b")],
            device=GmonDevice(line_topology(2)),
            settings=SETTINGS,
            hyperparameters=HYPER,
            max_block_width=2,
            tuning_samples=1,
        )
        assert len(compilers) == 2
        scheduler = compilers[0].report.metadata["scheduler"]
        assert scheduler["circuits"] == 2
        # Each parametrized block still tunes per circuit.
        assert all(c.report.parametrized_blocks >= 1 for c in compilers)
        result = compilers[1].compile([0.2])
        assert result.pulse_duration_ns > 0

    def test_empty_batch(self):
        assert FlexiblePartialCompiler.precompile_many([]) == []

    @pytest.mark.parametrize("samples", [0, -1])
    def test_nonpositive_tuning_samples_rejected_before_work(self, samples):
        cache = CountingCache()
        kwargs = dict(
            device=GmonDevice(line_topology(2)),
            settings=SETTINGS,
            hyperparameters=HYPER,
            cache=cache,
            tuning_samples=samples,
        )
        with pytest.raises(CompilationError, match="tuning_samples"):
            FlexiblePartialCompiler.precompile_many([_ansatz("a")], **kwargs)
        with pytest.raises(CompilationError, match="tuning_samples"):
            FlexiblePartialCompiler.precompile(_ansatz("a"), **kwargs)
        assert cache.put_keys == []
