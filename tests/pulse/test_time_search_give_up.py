"""A warm-started minimum-time search's descent probes give up early.

A descent probe's failing pulse is discarded, so
``optimize_pulse(..., give_up=True)`` may stop it once its recent
progress cannot reach the target.  These tests pin down that the stop
changes only time: the same pulses and durations, fewer iterations, and
no other probe (trial, doubling, binary) or direct ``optimize_pulse`` call
(the flexible runtime) affected.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest

from repro.core import compiler as compiler_module
from repro.core import flexible as flexible_module
from repro.linalg import haar_random_unitary
from repro.perf import get_perf_registry
from repro.pulse.device import GmonDevice
from repro.pulse.grape import time_search
from repro.pulse.grape.engine import GrapeHyperparameters, GrapeSettings, optimize_pulse
from repro.pulse.grape.memo import GrapeRunMemo, run_key
from repro.pulse.grape.time_search import MinimumTimeResult, minimum_time_pulse
from repro.pulse.hamiltonian import build_control_set
from repro.qaoa import maxcut_problem, qaoa_circuit
from repro.service import CompilationService, CompileRequest, ServiceConfig
from repro.transpile import transpile
from repro.transpile.topology import line_topology, nearly_square_grid
from repro.vqe import get_molecule

X = np.array([[0, 1], [1, 0]], dtype=complex)
#: X up to a small diagonal phase: a near miss of X.
NEAR_X = X @ np.diag(np.exp(0.05j * np.arange(2)))

#: The repository benchmark's full-GRAPE stream: QAOA on a 3-regular
#: 4-node graph, 0.5 ns slices, target 0.95, 120 iterations, 2-qubit blocks.
STREAM_SETTINGS = GrapeSettings(dt_ns=0.5, target_fidelity=0.95)
STREAM_HYPER = GrapeHyperparameters(max_iterations=120)
#: Near-miss θ: every request after the first seeds its θ-dependent
#: blocks from the pulses the one before cached.
STREAM_THETAS = ([0.3, 1.1], [0.33, 1.07], [0.36, 1.12], [0.38, 1.09])

#: The paper benches' GRAPE settings (``benchmarks/common.py``).
PAPER_SETTINGS = GrapeSettings(dt_ns=0.25, target_fidelity=0.99)
PAPER_HYPER = GrapeHyperparameters(
    learning_rate=0.05, decay_rate=0.002, max_iterations=200
)

ABANDONED = ("grape.time_search.abandoned", "grape.time_search.abandoned_iterations")


@contextmanager
def recorded_probes(rule: bool = True):
    """Yield a list collecting ``(give_up, result)`` for every probe of a
    minimum-time search; ``rule=False`` runs every probe to its end."""
    probes: list = []

    def record(*args, give_up=False, **kwargs):
        result = optimize_pulse(*args, give_up=give_up and rule, **kwargs)
        probes.append((give_up, result))
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(time_search, "optimize_pulse", record)
        yield probes


def _moved_since(before: dict) -> dict:
    perf = get_perf_registry()
    return {name: perf.counter(name) - before[name] for name in before}


def _counters() -> dict:
    perf = get_perf_registry()
    return {name: perf.counter(name) for name in ABANDONED}


def _routed(circuit):
    return transpile(circuit, topology=nearly_square_grid(circuit.num_qubits))


def _controls(result) -> list:
    return [
        (schedule.qubits, schedule.controls.tobytes())
        for schedule in result.program.schedules
    ]


@pytest.fixture(scope="module")
def qubit_cs():
    return build_control_set(GmonDevice(line_topology(2)), [0])


class TestNearMissStream:
    @staticmethod
    def _stream(rule: bool) -> tuple:
        circuit = _routed(qaoa_circuit(maxcut_problem("3regular", 4, seed=0), p=1))
        with recorded_probes(rule) as probes:
            with CompilationService(ServiceConfig(executor="serial")) as service:
                results = [
                    service.compile(
                        CompileRequest(
                            circuit,
                            theta,
                            strategy="full-grape",
                            settings=STREAM_SETTINGS,
                            hyperparameters=STREAM_HYPER,
                            max_block_width=2,
                        )
                    )
                    for theta in STREAM_THETAS
                ]
                warm_start = service.stats()["warm_start"]
        return results, probes, warm_start

    def test_same_pulses_fewer_iterations(self):
        before = _counters()
        ours, probes, warm_start = self._stream(rule=True)
        moved = _moved_since(before)
        theirs, plain_probes, _ = self._stream(rule=False)
        for a, b in zip(ours, theirs, strict=True):
            assert _controls(a) == _controls(b)
            assert a.pulse_duration_ns == b.pulse_duration_ns
            assert a.runtime_iterations <= b.runtime_iterations
        assert sum(r.runtime_iterations for r in ours) < sum(
            r.runtime_iterations for r in theirs
        )
        # Probe for probe, the same decisions; only abandoned probes ran
        # fewer iterations.
        assert len(probes) == len(plain_probes)
        abandoned = []
        for (give_up, ran), (_, plain) in zip(probes, plain_probes):
            assert ran.converged == plain.converged
            if ran.abandoned:
                assert give_up and not plain.converged
                assert ran.iterations < plain.iterations
                abandoned.append(ran)
            else:
                assert ran.iterations == plain.iterations
                assert ran.schedule.controls.tobytes() == plain.schedule.controls.tobytes()
        assert abandoned
        assert moved == {
            "grape.time_search.abandoned": len(abandoned),
            "grape.time_search.abandoned_iterations": sum(
                result.iterations for result in abandoned
            ),
        }
        assert warm_start["abandoned_descents"] >= len(abandoned)


class TestProbePhases:
    @pytest.mark.parametrize(
        "upper_ns, seeded",
        [
            (30.0, False),  # trial converges, binary probes fail and pass
            (1.0, False),  # trials fail, doublings fail then pass, binary
            (30.0, True),  # trial at the seed's duration, then descent
        ],
        ids=["trial-binary", "doubling", "seeded-descent"],
    )
    def test_only_descent_probes_give_up(self, qubit_cs, upper_ns, seeded):
        warm = None
        if seeded:
            warm = minimum_time_pulse(
                qubit_cs, X, upper_ns, STREAM_HYPER, STREAM_SETTINGS
            ).schedule

        def search(rule: bool):
            with recorded_probes(rule) as probes:
                result = minimum_time_pulse(
                    qubit_cs,
                    NEAR_X,
                    upper_ns,
                    STREAM_HYPER,
                    STREAM_SETTINGS,
                    warm_start=warm,
                )
            return result, probes

        ours, probes = search(rule=True)
        theirs, plain_probes = search(rule=False)
        assert ours.schedule.controls.tobytes() == theirs.schedule.controls.tobytes()
        assert ours.duration_ns == theirs.duration_ns
        assert [p[0] for p in ours.probes] == [p[0] for p in theirs.probes]
        descents = [give_up for give_up, _ in probes]
        if not seeded:
            assert not any(descents)
            assert ours.total_iterations == theirs.total_iterations
            assert ours.probes == theirs.probes
            assert (ours.abandoned, ours.abandoned_iterations) == (0, 0)
            return
        # The opening trial at the seed's duration runs without the rule;
        # the one-step descent below it fails and gives up.
        assert descents == [False, True]
        (_, trial), (_, descent) = probes
        assert trial.iterations == plain_probes[0][1].iterations
        assert descent.abandoned and not descent.converged
        assert ours.abandoned == 1
        assert ours.abandoned_iterations == descent.iterations
        saved = plain_probes[1][1].iterations - descent.iterations
        assert saved > 0
        assert ours.total_iterations == theirs.total_iterations - saved

    def test_rule_truncates_the_same_run(self, qubit_cs):
        """``give_up`` stops a hopeless run where the stated projection
        first misses the target, and changes nothing before that."""
        settings = STREAM_SETTINGS
        full = optimize_pulse(qubit_cs, X, 4, STREAM_HYPER, settings)
        cut = optimize_pulse(qubit_cs, X, 4, STREAM_HYPER, settings, give_up=True)
        assert not full.abandoned and not full.converged
        assert cut.abandoned and not cut.converged
        assert cut.iterations < full.iterations
        assert cut.fidelity_history == full.fidelity_history[: cut.iterations]
        window = settings.plateau_patience // 2
        budget = STREAM_HYPER.max_iterations
        # best[j]: the best fidelity of iterations 2..j+2.
        best = np.maximum.accumulate(full.fidelity_history[1:])

        def hopeless(k: int) -> bool:  # k iterations run
            rate = (best[k - 2] - best[k - 2 - window]) / window
            return best[k - 2] + 2.0 * rate * (budget - k) < settings.target_fidelity

        k = cut.iterations
        assert k > window + 1 and hopeless(k)
        assert not any(hopeless(j) for j in range(window + 2, k))
        assert cut.fidelity == max(full.fidelity_history[:k])

    def test_flexible_runtime_runs_without_the_rule(self, monkeypatch):
        calls: list = []

        def record(*args, **kwargs):
            calls.append(kwargs.get("give_up", False))
            return optimize_pulse(*args, **kwargs)

        monkeypatch.setattr(flexible_module, "optimize_pulse", record)
        before = _counters()
        circuit = _routed(get_molecule("H2").ansatz())
        with CompilationService(ServiceConfig(executor="serial")) as service:
            service.compile(
                CompileRequest(
                    circuit,
                    [0.1] * len(circuit.parameters),
                    strategy="flexible-partial",
                    settings=STREAM_SETTINGS,
                    hyperparameters=STREAM_HYPER,
                    max_block_width=2,
                    options={
                        "tuning_samples": 1,
                        "learning_rates": (0.05,),
                        "decay_rates": (0.002,),
                    },
                )
            )
        assert calls and not any(calls)
        assert _moved_since(before) == dict.fromkeys(ABANDONED, 0)


class TestSlowDescent:
    def test_paper_settings_strict_h2_descents_converge(self):
        """At the paper benches' target 0.99 / 200 iterations, the strict
        H2 precompile's descents converge after the rule's window opens;
        none gives up."""
        circuit = _routed(get_molecule("H2").ansatz())
        with recorded_probes() as probes:
            with CompilationService(ServiceConfig(executor="serial")) as service:
                service.compile(
                    CompileRequest(
                        circuit,
                        [0.2] * len(circuit.parameters),
                        strategy="strict-partial",
                        settings=PAPER_SETTINGS,
                        hyperparameters=PAPER_HYPER,
                        max_block_width=3,
                    )
                )
        descents = [result for give_up, result in probes if give_up]
        window = PAPER_SETTINGS.plateau_patience // 2
        assert not any(result.abandoned for _, result in probes)
        assert any(
            result.converged and result.iterations > window + 1
            for result in descents
        )

    def test_climb_back_from_a_warm_start_is_not_abandoned(self):
        """ADAM's first step can throw a good warm start far off and the
        run climb back to converge: judged from the seed's fidelity, such
        a run shows no progress for the whole window."""
        control_set = build_control_set(GmonDevice(line_topology(2)), [0, 1])
        target = haar_random_unitary(4, seed=3)
        longer = optimize_pulse(control_set, target, 60, PAPER_HYPER, PAPER_SETTINGS)
        assert longer.converged
        initial = longer.schedule.resampled(59).controls
        run = optimize_pulse(
            control_set,
            target,
            59,
            PAPER_HYPER,
            PAPER_SETTINGS,
            initial=initial,
            give_up=True,
        )
        history = run.fidelity_history
        window = PAPER_SETTINGS.plateau_patience // 2
        assert run.converged and not run.abandoned
        assert run.iterations > window + 1
        # The seed outscores every iterate of the first window.
        assert history[0] > max(history[1 : window + 1])

class TestMemo:
    def test_plain_run_is_not_replayed_for_a_give_up_run(self, qubit_cs):
        memo = GrapeRunMemo()
        args = (qubit_cs, X, 4, STREAM_HYPER, STREAM_SETTINGS, None)
        assert run_key(*args) != run_key(*args, give_up=True)
        plain = optimize_pulse(*args[:5], memo=memo)
        cut = optimize_pulse(*args[:5], memo=memo, give_up=True)
        assert memo.stats()["hits"] == 0 and memo.stats()["misses"] == 2
        assert not plain.abandoned and cut.abandoned
        assert cut.iterations < plain.iterations
        replayed = optimize_pulse(*args[:5], memo=memo, give_up=True)
        assert replayed.memo_hit and replayed.abandoned
        assert replayed.iterations == cut.iterations
        assert memo.stats()["hits"] == 1


class TestSeededSearchMerge:
    def test_losers_counts_are_merged(self, monkeypatch):
        """The guarded search reports both searches' memo hits and
        abandoned probes, whichever wins."""

        def outcome(converged, **counts) -> MinimumTimeResult:
            return MinimumTimeResult(
                schedule=None,
                fidelity=0.96 if converged else 0.9,
                duration_ns=2.0,
                converged=converged,
                total_iterations=100,
                grape_calls=3,
                wall_time_s=0.0,
                **counts,
            )

        seeded = outcome(False, memo_hits=1, abandoned=1, abandoned_iterations=40)
        cold = outcome(True, memo_hits=2)
        runs = iter([seeded, cold])
        monkeypatch.setattr(
            compiler_module, "minimum_time_pulse", lambda *a, **k: next(runs)
        )
        merged = compiler_module._seeded_search(
            None, X, 4.0, STREAM_HYPER, STREAM_SETTINGS, seed=object()
        )
        assert merged.converged
        assert merged.total_iterations == 200
        assert merged.memo_hits == 3
        assert (merged.abandoned, merged.abandoned_iterations) == (1, 40)
