"""Typed, immutable configuration for the compilation service.

:class:`ServiceConfig` consolidates the ``REPRO_*`` environment knobs —
executor, cache directory/sharding/budget, GRAPE batching, warm-start
seeding, fleet and server settings — into one frozen dataclass.  This
module is the **only** place in the whole package that reads ``REPRO_*``
environment variables (a repo test greps for strays), so "what
configuration am I actually running with?" always has one answer:
``python -m repro config show``.

Two readers live here.  :meth:`ServiceConfig.from_env` parses every
field's variable; the front doors (a service built without a config, the
CLI) call it.  :func:`preset_from_env` reads ``REPRO_PRESET`` alone; it
runs at import time (via :mod:`repro.config`) to seed the process-wide
active preset, which is not a config field.  So a malformed value of any
other variable warns once, when a front door parses it, and never makes
``import repro`` warn or crash.  Parsing is tolerant: malformed values
fall back to defaults with a warning.  Work that outlives a process
lives in one place, the pulse library under ``cache_dir``.

This module sits *below* :mod:`repro.config` in the import graph (it
depends only on :mod:`repro.errors`), which is why the executor and shard
choice constants live here and are re-exported from :mod:`repro.config`
for backwards compatibility.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field, fields, replace

from repro.errors import ReproError

#: Executor names understood by the compilation pipeline.
EXECUTOR_CHOICES = ("serial", "auto")

#: Valid shard fan-outs for the on-disk pulse library: entries shard by a
#: whole-hex-character prefix of their unitary fingerprint, so the count
#: must be a power of 16.
CACHE_SHARD_CHOICES = (16, 256, 4096)

#: How fixed-block jobs leave the service: ``"executor"`` keeps them on
#: the in-process block executor; ``"queue"`` routes them through the
#: file-backed fleet queue to detached worker processes.
DISPATCHER_CHOICES = ("executor", "queue")

#: The preset a process starts with when ``REPRO_PRESET`` is unset.
DEFAULT_PRESET = "ci"


def _env_number(
    env_name: str,
    field_name: str,
    kind,
    valid,
    requirement: str,
    values: dict,
    sources: dict,
) -> None:
    """Parse one numeric env var with the standard tolerant behaviour:
    unset/empty keeps the default, malformed or out-of-range warns."""
    raw = os.environ.get(env_name)
    if not raw:
        return
    try:
        value = kind(raw)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        warnings.warn(
            f"ignoring {env_name}={raw!r} (not {noun})", stacklevel=4
        )
        return
    if not valid(value):
        warnings.warn(
            f"ignoring {env_name}={value} ({requirement})", stacklevel=4
        )
        return
    values[field_name] = value
    sources[field_name] = "env"


def _env_bool(
    env_name: str, field_name: str, values: dict, sources: dict
) -> None:
    """Parse one boolean env var (1/true/yes/on or 0/false/no/off)."""
    raw = os.environ.get(env_name, "")
    if not raw:
        return
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        values[field_name] = True
        sources[field_name] = "env"
    elif lowered in ("0", "false", "no", "off"):
        values[field_name] = False
        sources[field_name] = "env"
    else:
        warnings.warn(
            f"ignoring {env_name}={raw!r} (expected a boolean)", stacklevel=4
        )


@dataclass(frozen=True)
class ServiceConfig:
    """Execution settings for the compilation service (and everything
    underneath it).

    Attributes
    ----------
    executor:
        How independent per-block GRAPE work is dispatched
        (``REPRO_EXECUTOR``): ``"auto"`` (default) runs in the calling
        thread, and where the process may use two or more CPUs a service
        forks a pool of two search workers once.  A request's pure
        tasks (cold block searches, flexible runtime GRAPE runs) go to
        whichever of one idle worker and the calling thread is free next,
        or all to an idle worker while another request runs tasks (see
        :class:`repro.pipeline.executors.AutoExecutor`); ``"serial"``
        runs everything in the calling thread.  For multi-process
        dispatch of large batches use ``dispatcher="queue"``.
    submit_workers:
        Size of the request-level thread pool behind
        :meth:`repro.service.CompilationService.submit`
        (``REPRO_SUBMIT_WORKERS``).  Defaults to
        ``min(8, os.cpu_count())`` — enough to overlap non-conflicting
        requests without oversubscribing block-level workers.
    cache_dir:
        Directory for the persistent pulse cache (``REPRO_CACHE_DIR``).
        ``None`` keeps the cache purely in memory.  It is the one way a
        new process picks up earlier work: a service over a warm
        directory serves every block compiled there before from the
        library, with zero GRAPE iterations.
    cache_shards:
        Shard fan-out of the on-disk pulse library
        (``REPRO_CACHE_SHARDS``); one of :data:`CACHE_SHARD_CHOICES`.
    cache_budget_mb:
        Default size budget for :meth:`repro.library.PulseLibrary.gc`
        (``REPRO_CACHE_BUDGET_MB``).  ``None`` means unbounded.
    grape_batch:
        Whether the batch scheduler may stack same-shape cold blocks into
        the cross-block batched GRAPE kernel
        (:mod:`repro.pulse.grape.batched`) when the executor runs tasks
        inline (``REPRO_GRAPE_BATCH``).  Results are bit-identical to the
        per-block kernel; this knob exists for debugging and A/B timing.
        A group stacks at most :data:`repro.pulse.grape.batched
        .DEFAULT_MAX_GROUP` blocks.
    warm_start:
        Whether cache-missing blocks warm-start GRAPE from the nearest
        cached pulse — or, for seedless two-qubit blocks, from the
        analytic KAK seed — instead of random fields
        (``REPRO_WARM_START``).  A best-of guard makes seeding strictly
        safe (never a worse pulse than a cold start), so this knob exists
        for debugging and A/B iteration counts.
    dispatcher:
        Where fixed-block jobs are compiled (``REPRO_DISPATCHER``):
        ``"executor"`` (default) keeps them on the in-process block
        executor; ``"queue"`` sends them through the
        :class:`repro.fleet.QueueDispatcher` to the worker processes
        (``python -m repro worker``) that drain the fleet queue
        directory, and runs them inline while none is registered.
    fleet_dir:
        The fleet queue directory (``REPRO_FLEET_DIR``).  ``None`` with
        ``dispatcher="queue"`` derives ``<cache_dir>/fleet``; with no
        cache directory either, the config is rejected.
    queue_depth:
        Bounded admission for :meth:`repro.service.CompilationService
        .submit` (``REPRO_QUEUE_DEPTH``): at most this many requests may
        be queued or running at once; further ``submit`` calls block
        until a slot frees (backpressure).  ``None`` (default) admits
        without bound.
    fleet_lease_ttl_s:
        Lease time-to-live for fleet jobs (``REPRO_FLEET_LEASE_TTL``,
        seconds).  A claimed job whose lease heartbeat goes silent for
        this long is reclaimed by another worker.
    server_host / server_port:
        Bind address for ``python -m repro serve``
        (``REPRO_SERVER_HOST`` / ``REPRO_SERVER_PORT``).  Port ``0``
        picks an ephemeral port.
    server_max_body_mb:
        Largest ``POST /v1/compile`` body the HTTP frontend accepts
        (``REPRO_SERVER_MAX_BODY_MB``); bigger requests get 413.
    server_ticket_ttl_s:
        How long the HTTP frontend retains a finished, unfetched async
        ticket (``REPRO_SERVER_TICKET_TTL``, seconds).
    """

    executor: str = "auto"
    submit_workers: int = field(
        default_factory=lambda: min(8, os.cpu_count() or 1)
    )
    cache_dir: str | None = None
    cache_shards: int = 16
    cache_budget_mb: float | None = None
    grape_batch: bool = True
    warm_start: bool = True
    dispatcher: str = "executor"
    fleet_dir: str | None = None
    queue_depth: int | None = None
    fleet_lease_ttl_s: float = 30.0
    server_host: str = "127.0.0.1"
    server_port: int = 8642
    server_max_body_mb: float = 32.0
    server_ticket_ttl_s: float = 3600.0

    def __post_init__(self):
        if self.executor not in EXECUTOR_CHOICES:
            raise ReproError(
                f"unknown executor {self.executor!r}; available: {EXECUTOR_CHOICES}"
            )
        if self.submit_workers < 1:
            raise ReproError(
                f"submit_workers must be >= 1, got {self.submit_workers}"
            )
        if self.cache_shards not in CACHE_SHARD_CHOICES:
            raise ReproError(
                f"cache_shards must be one of {CACHE_SHARD_CHOICES}, "
                f"got {self.cache_shards}"
            )
        if self.cache_budget_mb is not None and self.cache_budget_mb <= 0:
            raise ReproError(
                f"cache_budget_mb must be positive, got {self.cache_budget_mb}"
            )
        if self.dispatcher not in DISPATCHER_CHOICES:
            raise ReproError(
                f"unknown dispatcher {self.dispatcher!r}; "
                f"available: {DISPATCHER_CHOICES}"
            )
        if self.dispatcher == "queue" and not (self.fleet_dir or self.cache_dir):
            raise ReproError(
                "dispatcher='queue' needs fleet_dir (REPRO_FLEET_DIR) or "
                "cache_dir (REPRO_CACHE_DIR) to derive <cache_dir>/fleet from"
            )
        if self.queue_depth is not None and self.queue_depth < 1:
            raise ReproError(
                f"queue_depth must be >= 1, got {self.queue_depth}"
            )
        if self.fleet_lease_ttl_s <= 0:
            raise ReproError(
                f"fleet_lease_ttl_s must be positive, got {self.fleet_lease_ttl_s}"
            )
        if not 0 <= self.server_port <= 65535:
            raise ReproError(
                f"server_port must be in [0, 65535], got {self.server_port}"
            )
        if self.server_max_body_mb <= 0:
            raise ReproError(
                f"server_max_body_mb must be positive, "
                f"got {self.server_max_body_mb}"
            )
        if self.server_ticket_ttl_s <= 0:
            raise ReproError(
                f"server_ticket_ttl_s must be positive, "
                f"got {self.server_ticket_ttl_s}"
            )

    # -- construction --------------------------------------------------------
    @classmethod
    def from_env(cls) -> "ServiceConfig":
        """The configuration selected by the ``REPRO_*`` environment.

        The one full env read.  Only the front doors call it —
        :class:`~repro.service.CompilationService` built without a config
        and the CLI — and every layer below them takes its values from its
        caller.  (Import reads ``REPRO_PRESET`` alone; see
        :func:`preset_from_env`.)
        """
        config, _sources = cls.from_env_with_sources()
        return config

    @classmethod
    def from_env_with_sources(cls, **overrides) -> tuple:
        """Like :meth:`from_env`, plus a ``{field: "env" | "default"}`` map.

        The source map is what ``python -m repro config show`` prints, so
        debugging a mis-set environment never requires a source dive.
        ``overrides`` (the CLI's flags) win over the environment and are
        validated together with it, so a flag can complete a combination
        the environment left invalid; their sources are the caller's to
        label.
        """
        values: dict = {}
        sources = {f.name: "default" for f in fields(cls)}

        executor = os.environ.get("REPRO_EXECUTOR")
        if executor is not None:
            if executor in EXECUTOR_CHOICES:
                values["executor"] = executor
                sources["executor"] = "env"
            else:
                warnings.warn(
                    f"ignoring REPRO_EXECUTOR={executor!r}; "
                    f"available: {EXECUTOR_CHOICES}",
                    stacklevel=3,
                )

        _env_number(
            "REPRO_SUBMIT_WORKERS", "submit_workers", int,
            lambda v: v >= 1, "must be >= 1", values, sources,
        )

        cache_dir = os.environ.get("REPRO_CACHE_DIR")
        if cache_dir:
            values["cache_dir"] = cache_dir
            sources["cache_dir"] = "env"

        shards_raw = os.environ.get("REPRO_CACHE_SHARDS")
        if shards_raw:
            try:
                candidate = int(shards_raw)
            except ValueError:
                candidate = None
            if candidate in CACHE_SHARD_CHOICES:
                values["cache_shards"] = candidate
                sources["cache_shards"] = "env"
            else:
                warnings.warn(
                    f"ignoring REPRO_CACHE_SHARDS={shards_raw!r}; "
                    f"available: {CACHE_SHARD_CHOICES}",
                    stacklevel=3,
                )

        _env_number(
            "REPRO_CACHE_BUDGET_MB", "cache_budget_mb", float,
            lambda v: v > 0, "must be positive", values, sources,
        )

        _env_bool("REPRO_GRAPE_BATCH", "grape_batch", values, sources)
        _env_bool("REPRO_WARM_START", "warm_start", values, sources)

        dispatcher = os.environ.get("REPRO_DISPATCHER")
        if dispatcher is not None:
            if dispatcher in DISPATCHER_CHOICES:
                values["dispatcher"] = dispatcher
                sources["dispatcher"] = "env"
            else:
                warnings.warn(
                    f"ignoring REPRO_DISPATCHER={dispatcher!r}; "
                    f"available: {DISPATCHER_CHOICES}",
                    stacklevel=3,
                )

        fleet_dir = os.environ.get("REPRO_FLEET_DIR")
        if fleet_dir:
            values["fleet_dir"] = fleet_dir
            sources["fleet_dir"] = "env"

        _env_number(
            "REPRO_QUEUE_DEPTH", "queue_depth", int,
            lambda v: v >= 1, "must be >= 1", values, sources,
        )
        _env_number(
            "REPRO_FLEET_LEASE_TTL", "fleet_lease_ttl_s", float,
            lambda v: v > 0, "must be positive", values, sources,
        )
        server_host = os.environ.get("REPRO_SERVER_HOST")
        if server_host:
            values["server_host"] = server_host
            sources["server_host"] = "env"
        _env_number(
            "REPRO_SERVER_PORT", "server_port", int,
            lambda v: 0 <= v <= 65535, "must be in [0, 65535]",
            values, sources,
        )
        _env_number(
            "REPRO_SERVER_MAX_BODY_MB", "server_max_body_mb", float,
            lambda v: v > 0, "must be positive", values, sources,
        )
        _env_number(
            "REPRO_SERVER_TICKET_TTL", "server_ticket_ttl_s", float,
            lambda v: v > 0, "must be positive", values, sources,
        )

        return cls(**{**values, **overrides}), sources

    # -- utilities -----------------------------------------------------------
    def replace(self, **overrides) -> "ServiceConfig":
        """A copy with ``overrides`` applied (validation re-runs)."""
        return replace(self, **overrides)

    def library_options(self) -> dict:
        """The pulse-library fields as ``PulseLibrary`` /
        ``PersistentPulseCache`` keyword arguments."""
        return {
            "shards": self.cache_shards,
            "budget_mb": self.cache_budget_mb,
        }

    def as_dict(self) -> dict:
        """Field → value, in declaration order (for stats and the CLI)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


def preset_from_env() -> str:
    """The preset ``REPRO_PRESET`` names, else :data:`DEFAULT_PRESET`.

    The import-time read behind :mod:`repro.config`'s active preset.  It
    looks at this one variable only, so it never warns; the name is
    validated when :func:`repro.config.get_preset` first uses it.  To
    switch presets in code, call :func:`repro.config.set_preset`.
    """
    return os.environ.get("REPRO_PRESET") or DEFAULT_PRESET
