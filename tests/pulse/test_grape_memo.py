"""Tests for the GRAPE-run memo (``repro.pulse.grape.memo``)."""

import pickle
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.config import get_preset, set_preset
from repro.pulse.device import GmonDevice
from repro.pulse.grape.engine import GrapeHyperparameters, GrapeSettings, optimize_pulse
from repro.pulse.grape.memo import GrapeRunMemo, run_key
from repro.pulse.grape.time_search import minimum_time_pulse
from repro.pulse.hamiltonian import build_control_set
from repro.transpile.topology import line_topology

X = np.array([[0, 1], [1, 0]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
STEPS = 8
SETTINGS = GrapeSettings(dt_ns=0.25, target_fidelity=0.99)
HYPER = GrapeHyperparameters(learning_rate=0.05, decay_rate=0.002, max_iterations=40)


@pytest.fixture(scope="module")
def control_set():
    return build_control_set(GmonDevice(line_topology(2)), [0])


def run(
    memo, control_set, target=X, num_steps=STEPS, hyper=HYPER, settings=SETTINGS, initial=None
):
    return optimize_pulse(
        control_set, target, num_steps, hyper, settings, initial=initial, memo=memo
    )


def assert_same_run(a, b):
    assert np.array_equal(a.schedule.controls, b.schedule.controls)
    assert a.schedule.channel_names == b.schedule.channel_names
    assert a.schedule.qubits == b.schedule.qubits
    assert (a.fidelity, a.converged, a.iterations) == (b.fidelity, b.converged, b.iterations)
    assert a.fidelity_history == b.fidelity_history


class TestReplay:
    def test_hit_is_bit_identical_to_a_fresh_run(self, control_set):
        memo = GrapeRunMemo()
        first = run(memo, control_set)
        replayed = run(memo, control_set)
        assert not first.memo_hit and replayed.memo_hit
        assert memo.stats() == {"hits": 1, "misses": 1, "size": 1, "max_entries": memo.max_entries}
        assert_same_run(replayed, run(None, control_set))
        assert replayed.iterations == first.iterations

    def test_optional_arguments_resolve_like_optimize_pulse(self, control_set):
        memo = GrapeRunMemo()
        defaults = optimize_pulse(control_set, X, STEPS, memo=memo)
        explicit = run(memo, control_set, hyper=GrapeHyperparameters(), settings=GrapeSettings())
        assert explicit.memo_hit
        assert_same_run(defaults, optimize_pulse(control_set, X, STEPS))

    def test_mutating_a_result_leaves_the_entry_unchanged(self, control_set):
        memo = GrapeRunMemo()
        for result in (run(memo, control_set), run(memo, control_set)):
            result.schedule.controls[:] = 123.0
            result.fidelity_history.append(-1.0)
        assert_same_run(run(memo, control_set), run(None, control_set))

    def test_minimum_time_search_counts_replayed_probes(self, control_set):
        memo = GrapeRunMemo()
        cold = minimum_time_pulse(
            control_set, X, upper_bound_ns=3.0, hyperparameters=HYPER, settings=SETTINGS, memo=memo
        )
        warm = minimum_time_pulse(
            control_set, X, upper_bound_ns=3.0, hyperparameters=HYPER, settings=SETTINGS, memo=memo
        )
        assert cold.memo_hits == 0
        assert warm.memo_hits == warm.grape_calls == cold.grape_calls
        assert warm.total_iterations == cold.total_iterations
        assert np.array_equal(warm.schedule.controls, cold.schedule.controls)


class TestKey:
    """A change to any one input of the run misses."""

    @pytest.mark.parametrize(
        "change",
        [
            {"target": H},
            {"num_steps": STEPS + 1},
            {"initial": "zeros"},
            {"hyper": replace(HYPER, learning_rate=0.06)},
            {"hyper": replace(HYPER, decay_rate=0.0)},
            {"hyper": replace(HYPER, max_iterations=41)},
            {"hyper": replace(HYPER, optimizer="lbfgs")},
            {"settings": replace(SETTINGS, dt_ns=0.3)},
            {"settings": replace(SETTINGS, target_fidelity=0.98)},
            {"settings": replace(SETTINGS, seed=1)},
            {"settings": replace(SETTINGS, plateau_patience=5)},
        ],
        ids=lambda change: next(iter(change)),
    )
    def test_single_component_change_misses(self, control_set, change):
        memo = GrapeRunMemo()
        run(memo, control_set)
        if change.get("initial") == "zeros":
            change = {"initial": np.zeros((control_set.num_controls, STEPS))}
        result = run(memo, control_set, **change)
        assert not result.memo_hit
        assert memo.stats()["misses"] == 2
        # A different initial array of the same shape misses too.
        if "initial" in change:
            assert not run(memo, control_set, initial=change["initial"] + 1e-3).memo_hit

    @pytest.mark.parametrize(
        "field", ["drift", "operators", "max_amplitudes", "qubits", "levels", "channels"]
    )
    def test_control_set_change_misses(self, control_set, field):
        changes = {
            "drift": {"drift": control_set.drift + 1e-9},
            "operators": {"operators": control_set.operators * (1 + 1e-9)},
            "max_amplitudes": {"max_amplitudes": control_set.max_amplitudes * 0.9},
            "qubits": {"qubits": (1,)},
            "levels": {"levels": control_set.levels + 1},
            "channels": {
                "channels": [replace(ch, qubits=(1,)) for ch in control_set.channels]
            },
        }
        changed = replace(control_set, **changes[field])
        key = run_key(control_set, X, STEPS, HYPER, SETTINGS, None)
        assert run_key(changed, X, STEPS, HYPER, SETTINGS, None) != key
        assert run_key(replace(control_set), X, STEPS, HYPER, SETTINGS, None) == key

    def test_preset_switch_misses(self, control_set):
        # dt and fidelity target left to the preset.
        settings = GrapeSettings()
        hyper = GrapeHyperparameters(learning_rate=0.05, decay_rate=0.002, max_iterations=5)
        original = get_preset().name
        other = "paper" if original != "paper" else "ci"
        # The iteration budget too, checked by key (a paper-preset budget
        # is thousands of iterations).
        unset_budget = replace(HYPER, max_iterations=None)
        memo = GrapeRunMemo()
        try:
            run(memo, control_set, num_steps=4, hyper=hyper, settings=settings)
            budget_key = run_key(control_set, X, 4, unset_budget, SETTINGS, None)
            set_preset(other)
            switched = run(memo, control_set, num_steps=4, hyper=hyper, settings=settings)
            assert run_key(control_set, X, 4, unset_budget, SETTINGS, None) != budget_key
        finally:
            set_preset(original)
        assert not switched.memo_hit
        assert switched.schedule.dt_ns == get_preset(other).dt_ns


class TestBoundAndPickle:
    def test_lru_bound_holds(self, control_set, monkeypatch):
        monkeypatch.setattr(GrapeRunMemo, "max_entries", 3)
        memo = GrapeRunMemo()
        hyper = HYPER.with_iterations(2)
        for steps in range(1, 6):
            run(memo, control_set, num_steps=steps, hyper=hyper)
        assert memo.stats()["size"] == 3
        # The two oldest runs were evicted; the three newest replay.
        assert not run(memo, control_set, num_steps=1, hyper=hyper).memo_hit
        assert run(memo, control_set, num_steps=5, hyper=hyper).memo_hit
        assert memo.stats()["size"] == 3

    def test_recently_used_entry_survives_eviction(self, control_set, monkeypatch):
        monkeypatch.setattr(GrapeRunMemo, "max_entries", 2)
        memo = GrapeRunMemo()
        hyper = HYPER.with_iterations(2)
        run(memo, control_set, num_steps=1, hyper=hyper)
        run(memo, control_set, num_steps=2, hyper=hyper)
        run(memo, control_set, num_steps=1, hyper=hyper)  # refresh 1
        run(memo, control_set, num_steps=3, hyper=hyper)  # evicts 2
        assert run(memo, control_set, num_steps=1, hyper=hyper).memo_hit
        assert not run(memo, control_set, num_steps=2, hyper=hyper).memo_hit

    def test_pickle_round_trip_is_empty_and_working(self, control_set):
        memo = GrapeRunMemo()
        first = run(memo, control_set)
        clone = pickle.loads(pickle.dumps(memo))
        assert clone.stats()["size"] == 0 and memo.stats()["size"] == 1
        again = run(clone, control_set)
        assert not again.memo_hit
        assert run(clone, control_set).memo_hit
        assert_same_run(again, first)


def test_threads_share_one_memo_without_lost_updates(control_set):
    hyper = HYPER.with_iterations(3)
    steps = (1, 2, 3, 4)
    reference = {n: run(None, control_set, num_steps=n, hyper=hyper) for n in steps}
    memo = GrapeRunMemo()
    threads, calls = 8, 40
    failures = []

    def worker(offset):
        try:
            for i in range(calls):
                n = steps[(offset + i) % len(steps)]
                result = run(memo, control_set, num_steps=n, hyper=hyper)
                if not np.array_equal(result.schedule.controls, reference[n].schedule.controls):
                    failures.append(n)
        except Exception as exc:  # noqa: BLE001 - reported by the assertion below
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pool = [threading.Thread(target=worker, args=(k,)) for k in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in pool)
    assert failures == []
    stats = memo.stats()
    assert stats["hits"] + stats["misses"] == threads * calls
    assert stats["size"] == len(steps)
    assert len(steps) <= stats["misses"] <= threads * len(steps)

