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
thread or one of the ``auto`` executor's forked search workers.

GRAPE is deterministic for a given (target, context, settings, seed), so
the same job searches to the same pulse bit-for-bit no matter which venue
ran it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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
    warm_start:
        The warm-start policy resolved to a concrete value at job-build
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
    seed: object = None
