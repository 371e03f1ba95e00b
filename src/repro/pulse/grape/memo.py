"""A bounded memo of exact GRAPE runs.

:func:`~repro.pulse.grape.engine.optimize_pulse` is deterministic: the
control set, the target, the pulse length, the initial controls (or the
seeded random start), the hyperparameters and the settings fix every bit
of its result.  Flexible partial compilation's precompute phase (the
minimum-time probe and hyperparameter tuning of each single-θ block, paper
section 7) runs the same θ-independent GRAPE problems for every request
of one ansatz, so a :class:`GrapeRunMemo` passed to ``optimize_pulse``
replays them instead of re-running them.

The key is a digest of the run's exact inputs, with the preset-dependent
settings (``dt``, fidelity target, iteration budget) resolved, so a preset
switch misses.  A hit returns a fresh :class:`GrapeResult` whose arrays
are copies of the stored ones and whose ``iterations`` and ``wall_time_s``
are the original run's: hyperparameter tuning ranks trials by iterations,
so a replayed run must rank exactly as the run it replays.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import replace

import numpy as np

from repro.pulse.grape.engine import (
    GrapeHyperparameters,
    GrapeResult,
    GrapeSettings,
    optimize_pulse,
)
from repro.pulse.hamiltonian import ControlSet
from repro.pulse.schedule import PulseSchedule


def _add_array(digest, array: np.ndarray) -> None:
    array = np.ascontiguousarray(array)
    digest.update(f"{array.dtype.str}{array.shape}".encode())
    digest.update(array.tobytes())


def run_key(
    control_set: ControlSet,
    target: np.ndarray,
    num_steps: int,
    hyperparameters: GrapeHyperparameters,
    settings: GrapeSettings,
    initial: np.ndarray | None,
    give_up: bool = False,
) -> bytes:
    """Digest of everything that determines one ``optimize_pulse`` run."""
    resolved = replace(
        settings,
        dt_ns=settings.resolved_dt(),
        target_fidelity=settings.resolved_target(),
    )
    hyper = replace(
        hyperparameters, max_iterations=hyperparameters.resolved_iterations()
    )
    digest = hashlib.blake2b(digest_size=32)
    names = tuple(ch.name for ch in control_set.channels)
    # num_steps also fixes the scan chunk lengths that reassociate the
    # propagator products (see repro.linalg.scan.scan_block_size).
    digest.update(
        repr((control_set.qubits, control_set.levels, names, num_steps)).encode()
    )
    digest.update(repr((hyper, resolved, give_up)).encode())
    _add_array(digest, control_set.drift)
    _add_array(digest, control_set.operators)
    _add_array(digest, np.asarray(control_set.max_amplitudes, dtype=float))
    _add_array(digest, np.asarray(target, dtype=complex))
    if initial is None:
        digest.update(b"no initial controls")
    else:
        _add_array(digest, np.asarray(initial, dtype=float))
    return digest.digest()


def _copy(result: GrapeResult, memo_hit: bool) -> GrapeResult:
    schedule = result.schedule
    return replace(
        result,
        schedule=PulseSchedule(
            qubits=schedule.qubits,
            dt_ns=schedule.dt_ns,
            controls=schedule.controls.copy(),
            channel_names=schedule.channel_names,
            source=schedule.source,
        ),
        fidelity_history=list(result.fidelity_history),
        memo_hit=memo_hit,
    )


class GrapeRunMemo:
    """LRU memo of at most :attr:`max_entries` GRAPE runs, keyed by
    :func:`run_key`.

    Thread-safe: one lock guards the entries and counters, and the GRAPE
    run of a miss happens outside it, so two threads that miss on one key
    both run it and store equal results.  Pickling (of the precompile
    handler that holds the memo) drops the entries: the receiving process
    starts with an empty, working memo.
    """

    #: Bound on stored runs.  One request of an ansatz stores every probe
    #: and tuning run of its single-θ blocks, about 30 per block with the
    #: default tuning grid: measured 88 runs for H2 UCCSD, 430 for p=1
    #: QAOA on 6 nodes, 571 on 8 nodes and 831 for p=2 on 6 nodes.  An
    #: ansatz that needs more runs than the bound replays nothing (the LRU
    #: cycles), so the bound leaves room for several such ansätze.  An
    #: entry measured about 5 KB at ``dt`` = 0.5 ns, so a full memo is
    #: about 20 MB.
    max_entries = 4096

    def __init__(self):
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_lock"]
        state["_entries"] = OrderedDict()
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def run(
        self,
        control_set: ControlSet,
        target: np.ndarray,
        num_steps: int,
        hyperparameters: GrapeHyperparameters | None = None,
        settings: GrapeSettings | None = None,
        initial: np.ndarray | None = None,
        give_up: bool = False,
    ) -> GrapeResult:
        """``optimize_pulse(...)``, replayed when this exact run is stored."""
        hyperparameters = hyperparameters or GrapeHyperparameters()
        settings = settings or GrapeSettings()
        key = run_key(
            control_set, target, num_steps, hyperparameters, settings, initial, give_up
        )
        with self._lock:
            stored = self._entries.get(key)
            if stored is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return _copy(stored, memo_hit=True)
            self.misses += 1
        result = optimize_pulse(
            control_set,
            target,
            num_steps,
            hyperparameters,
            settings,
            initial=initial,
            give_up=give_up,
        )
        stored = _copy(result, memo_hit=False)
        with self._lock:
            self._entries[key] = stored
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
        return result

    def stats(self) -> dict:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "size": len(self._entries),
                "max_entries": self.max_entries,
            }
