"""Serializable block-search jobs — dispatch as data, not closures.

:class:`BlockJob` is a picklable descriptor carrying everything a bare
process needs to search one deduplicated block — the dedup/cache key,
the phase-canonical target unitary, the device (control context source),
GRAPE settings with the preset-deferred fields materialized, time-search
hyperparameters, the resolved warm-start policy and, once the dispatching
process has consulted its cache, the warm-start seed itself.

A job runs as :func:`repro.core.compiler.search_job` — the pure
minimum-time search from the job's own seed.  It needs no pulse cache:
the dispatching process resolved cache hits and seeds before any search
ran, and it writes and judges the results itself, in block order
(:func:`repro.core.compiler.compile_jobs`).  Every venue runs it through
:meth:`~repro.pipeline.executors.BlockExecutor.run_tasks`: the calling
thread, the ``auto`` executor's forked search worker, or a
:mod:`repro.fleet` worker process.

GRAPE is deterministic for a given (target, context, settings, seed), so
the same job searches to the same pulse bit-for-bit no matter which venue
ran it.

This module also owns the JSON encoding of schedules, outcomes, and
cache entries that the scheduler-state spill writes: JSON's repr-based
floats round-trip control samples bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _tuplify(obj):
    """Recursively turn JSON lists back into the tuples dedup keys use."""
    if isinstance(obj, list):
        return tuple(_tuplify(item) for item in obj)
    return obj


def _encode_schedule(schedule) -> dict:
    return {
        "qubits": list(schedule.qubits),
        "dt_ns": schedule.dt_ns,
        "controls_shape": list(schedule.controls.shape),
        # float(x) keeps each sample a Python float; json round-trips those
        # via repr, so reloaded controls are bit-identical.
        "controls": [float(x) for x in schedule.controls.ravel()],
        "channel_names": list(schedule.channel_names),
        "source": schedule.source,
    }


def _decode_schedule(data: dict):
    from repro.pulse.schedule import PulseSchedule as Schedule

    controls = np.array(data["controls"], dtype=float).reshape(
        tuple(data["controls_shape"])
    )
    return Schedule(
        qubits=tuple(data["qubits"]),
        dt_ns=data["dt_ns"],
        controls=controls,
        channel_names=tuple(data["channel_names"]),
        source=data["source"],
    )


def _encode_outcome(outcome) -> dict:
    return {
        "schedule": _encode_schedule(outcome.schedule),
        "duration_ns": outcome.duration_ns,
        "gate_based_ns": outcome.gate_based_ns,
        "iterations": outcome.iterations,
        "cache_hit": outcome.cache_hit,
        "used_grape": outcome.used_grape,
        "fidelity": outcome.fidelity,
    }


def _decode_outcome(data: dict):
    from repro.core.compiler import BlockCompileOutcome

    return BlockCompileOutcome(
        schedule=_decode_schedule(data["schedule"]),
        duration_ns=data["duration_ns"],
        gate_based_ns=data["gate_based_ns"],
        iterations=data["iterations"],
        cache_hit=data["cache_hit"],
        used_grape=data["used_grape"],
        fidelity=data["fidelity"],
    )


def _encode_cache_entry(entry) -> dict:
    return {
        "schedule": _encode_schedule(entry.schedule),
        "duration_ns": entry.duration_ns,
        "fidelity": entry.fidelity,
        "converged": entry.converged,
        "iterations": entry.iterations,
    }


def _decode_cache_entry(data: dict):
    from repro.core.cache import CacheEntry

    return CacheEntry(
        schedule=_decode_schedule(data["schedule"]),
        duration_ns=data["duration_ns"],
        fidelity=data["fidelity"],
        converged=data["converged"],
        iterations=data["iterations"],
    )


@dataclass(eq=False)
class BlockJob:
    """Everything one process needs to search one deduplicated block.

    Attributes
    ----------
    key:
        The dedup/cache identity (phase-canonical unitary fingerprint plus
        control context) — exactly the pulse-cache key the dispatching
        process looks up and fills.
    target:
        The block's target unitary on its local qubits.
    device_qubits:
        The device qubits behind each local index (sorted ascending).
    gate_based_ns:
        The block's gate-based critical path — the strictly-not-worse
        judgment threshold and the time-search upper bound.
    device:
        The device whose control context the job compiles against; the
        runner rebuilds the control set from it and ``device_qubits``.
    settings:
        GRAPE settings with the preset-deferred fields (``dt_ns``,
        ``target_fidelity``) materialized to concrete values, so a worker
        process cannot resolve them against a *different* active preset.
        Venues in other processes also apply the dispatching process's
        active preset, which still controls ``time_search_precision_ns``.
    hyperparameters:
        Time-search hyperparameters (learning rates, iteration budget).
    warm_start / warm_start_max_dist:
        The warm-start policy resolved to concrete values at job-build
        time — jobs never consult the builder's configuration.
    seed:
        The warm-start seed the dispatching process resolved from its
        cache (:meth:`~repro.core.compiler.BlockPulseCompiler._find_seed`),
        or ``None`` for a cold search.  :func:`~repro.core.compiler
        .search_job` starts from it.
    """

    key: tuple
    target: np.ndarray
    device_qubits: tuple
    gate_based_ns: float
    device: object
    settings: object
    hyperparameters: object
    warm_start: bool
    warm_start_max_dist: float
    seed: object = None
