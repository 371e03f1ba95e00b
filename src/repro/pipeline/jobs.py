"""Serializable block-compilation jobs — dispatch as data, not closures.

:class:`BlockJob` is a picklable descriptor carrying everything a bare
process needs to compile one deduplicated block — the dedup/cache key,
the phase-canonical target unitary, the device (control context source),
GRAPE settings with the preset-deferred fields materialized, time-search
hyperparameters, the resolved warm-start policy and, once the dispatching
process has consulted its cache, the warm-start seed itself.

A job runs in one of two venues:

* :func:`repro.core.compiler.search_job` — the pure minimum-time search
  from the job's own seed.  It needs no pulse cache: the dispatching
  process resolved cache hits and seeds before any search ran, and it
  writes and judges the results itself, in block order.  The in-process
  executors, the process pools and the ``auto`` executor's forked search
  worker all run this; out-of-process venues use
  :func:`search_block_job_counted`, which also returns the ``repro.perf``
  counts the search made so the dispatcher can record them.
* :func:`run_block_job` — the whole compile against a pulse cache (hit,
  seed, search, judgment), for venues that own a cache: the
  :mod:`repro.fleet` worker loop, which reads and fills the shared
  library.

GRAPE is deterministic for a given (target, context, settings, seed), so
the same job compiles to the same pulse bit-for-bit no matter which venue
ran it.

This module also owns the JSON encoding of schedules, outcomes, and
cache entries (moved here from the scheduler): job results must cross
process boundaries through completion records, and JSON's repr-based
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
    """Everything one process needs to compile one deduplicated block.

    Attributes
    ----------
    key:
        The dedup/cache identity (phase-canonical unitary fingerprint plus
        control context) — exactly the pulse-cache key, so whoever runs
        the job hits and fills the same shared library slot.
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
    hyperparameters:
        Time-search hyperparameters (learning rates, iteration budget).
    warm_start / warm_start_max_dist:
        The warm-start policy resolved to concrete values at job-build
        time — jobs never consult the builder's configuration.
    preset:
        The active preset name at job-build time.  Fleet workers apply it
        before compiling (it still controls ``time_search_precision_ns``);
        in-process dispatch inherits it from the running interpreter.
    cache_dir:
        Optional shared pulse-library directory.  Set by the fleet
        dispatcher before enqueueing so detached workers persist pulses
        where the service can see them; ``None`` means a private
        in-memory cache.
    seed:
        The warm-start seed the dispatching process resolved from its
        cache (:meth:`~repro.core.compiler.BlockPulseCompiler._find_seed`),
        or ``None`` for a cold search.  :func:`~repro.core.compiler
        .search_job` starts from it; :func:`run_block_job` ignores it and
        resolves a seed from its own cache.
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
    preset: str
    cache_dir: str | None = None
    seed: object = None

    @property
    def name(self) -> str:
        """A content-derived label (the cache entry's library file name)."""
        from repro.core.cache import _key_filename

        return _key_filename(self.key)


def run_block_job(job: BlockJob, cache=None):
    """Compile one :class:`BlockJob` to a ``BlockCompileOutcome``.

    ``cache`` lets long-lived venues (fleet workers) share one pulse cache
    across jobs; when ``None`` the job's ``cache_dir`` decides between a
    shared on-disk library and a private in-memory cache.  Runs the exact
    resolved-block path of
    :meth:`~repro.core.compiler.BlockPulseCompiler.compile_block`, so the
    result is bit-identical to compiling the block in-process.
    """
    from repro.core.cache import PersistentPulseCache, PulseCache
    from repro.core.compiler import BlockPulseCompiler

    if cache is None:
        if job.cache_dir:
            cache = PersistentPulseCache(job.cache_dir)
        else:
            cache = PulseCache()
    compiler = BlockPulseCompiler(
        job.device,
        job.settings,
        job.hyperparameters,
        cache,
        warm_start=job.warm_start,
        warm_start_max_dist=job.warm_start_max_dist,
    )
    return compiler.compile_job(job)


def search_block_job_counted(job: BlockJob) -> tuple:
    """:func:`repro.core.compiler.search_job` for a venue in another
    process.

    Returns ``(result, counts)``: ``counts`` holds every ``repro.perf``
    counter the search moved in this process (the ``grape.warm_start.*``
    accept/reject and iteration counts), which the dispatching process
    folds into its own registry with :func:`record_counts`.  Applies the
    job's preset first, so a long-lived worker follows the dispatcher's.
    Must not run in the dispatching process itself: there the counts
    already landed in the shared registry.
    """
    from repro.config import get_preset, set_preset
    from repro.core.compiler import search_job
    from repro.perf import get_perf_registry

    if get_preset().name != job.preset:
        set_preset(job.preset)
    perf = get_perf_registry()
    before = perf.snapshot()["counters"]
    result = search_job(job)
    after = perf.snapshot()["counters"]
    counts = {
        name: value - before.get(name, 0)
        for name, value in after.items()
        if value != before.get(name, 0)
    }
    return result, counts


def record_counts(counts: dict) -> None:
    """Fold a worker's ``repro.perf`` counts into this process's registry."""
    from repro.perf import get_perf_registry

    perf = get_perf_registry()
    for name, amount in counts.items():
        perf.count(name, amount)
