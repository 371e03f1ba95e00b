"""Benchmark-side tracing of the ``repro`` layers.

The tracer records a span around each public entry point of the layers
the benchmark drives, by wrapping those entry points at run time; nothing
under ``src/`` knows about it.  Methods are wrapped on their class.
Functions are wrapped in the module their caller looks them up in, e.g.
``repro.core.compiler.minimum_time_pulse`` rather than the defining
``repro.pulse.grape.time_search``, so a wrapper sees exactly the calls the
layer above makes.

A span is ``(id, parent id, request id, name, entry point, start, end,
attrs)``.  Spans stay in memory until the run ends; :func:`layer_metrics`
folds them, together with before/after counter deltas, into the per-layer
metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import threading
import time
from contextlib import contextmanager

import numpy as np


def _iterations(result) -> dict:
    return {"iterations": result.iterations}


def _batch_iterations(results) -> dict:
    return {"iterations": sum(r.iterations for r in results)}


def _probes(result) -> dict:
    return {"probes": result.grape_calls}


def _batch_probes(results) -> dict:
    return {"probes": sum(r.grape_calls for r in results), "blocks": len(results)}


def _scheduler_report(report) -> dict:
    return {
        "reused": report.reused_blocks,
        "keyed": report.unique_blocks + report.deduped_blocks + report.reused_blocks,
    }


#: ``(span name, module, attribute, attrs from the return value)``.  One
#: span name may cover several entry points: the same layer reached from
#: different callers, or the three routes a fixed block can be compiled by.
ENTRY_POINTS = (
    ("server.decode", "repro.server.http", "decode_request", None),
    ("server.encode", "repro.server.http", "encode_result", None),
    ("service.submit", "repro.service.facade", "CompilationService.submit", None),
    ("service.compile", "repro.service.facade", "CompilationService.compile", None),
    ("pipeline.run_many", "repro.pipeline.pipeline", "CompilationPipeline.run_many", None),
    ("pipeline.block", "repro.pipeline.stages", "BlockingStage.run", None),
    ("pipeline.plan_apply", "repro.pipeline.plan", "CompilationPlan.apply", None),
    ("pipeline.build_plan", "repro.pipeline.plan", "build_plan", None),
    ("pipeline.scheduler", "repro.pipeline.scheduler", "BlockScheduler.run", _scheduler_report),
    ("core.strict_precompile", "repro.core.strict", "_StrictPartialCompiler.precompile_many", None),
    ("core.strict_runtime", "repro.core.strict", "_StrictPartialCompiler.compile", None),
    ("core.flexible_precompile", "repro.core.flexible", "_FlexiblePartialCompiler.precompile_many", None),
    ("core.hyperopt", "repro.core.flexible", "tune_hyperparameters", None),
    ("core.flexible_runtime", "repro.core.flexible", "_FlexiblePartialCompiler.compile", None),
    ("core.compile_block", "repro.core.compiler", "BlockPulseCompiler.compile_block", None),
    ("core.compile_block", "repro.core.compiler", "BlockPulseCompiler.compile_blocks_batched", None),
    ("core.compile_block", "repro.core.compiler", "BlockPulseCompiler.compile_job", None),
    ("core.cache_stats", "repro.core.cache", "PulseCache.stats", None),
    ("core.cache_stats", "repro.core.cache", "PersistentPulseCache.stats", None),
    ("library.get", "repro.library.store", "PulseLibrary.get", None),
    ("library.put", "repro.library.store", "PulseLibrary.put", None),
    ("library.neighbor", "repro.core.cache", "PersistentPulseCache.find_neighbor", None),
    ("grape.time_search", "repro.core.compiler", "minimum_time_pulse", _probes),
    ("grape.time_search", "repro.core.flexible", "minimum_time_pulse", _probes),
    ("grape.time_search_batch", "repro.pulse.grape.batched", "minimum_time_pulse_batch", _batch_probes),
    ("grape.optimize", "repro.pulse.grape.time_search", "optimize_pulse", _iterations),
    ("grape.optimize", "repro.pulse.grape.batched", "optimize_pulse", _iterations),
    ("grape.optimize", "repro.core.flexible", "optimize_pulse", _iterations),
    ("grape.optimize", "repro.core.hyperopt", "optimize_pulse", _iterations),
    ("grape.optimize_batch", "repro.pulse.grape.batched", "optimize_pulse_batch", _batch_iterations),
)

#: Process-global ``repro.perf`` counters the metrics take deltas of.
PERF_COUNTERS = (
    "grape.warm_start.accepted",
    "grape.warm_start.neighbor_seeds",
    "grape.warm_start.kak_seeds",
)


def entry_point_id(module: str, attribute: str) -> str:
    return f"{module}:{attribute}"


class Tracer:
    """Wraps :data:`ENTRY_POINTS` and keeps the spans they record.

    Request ids come from :meth:`request` on the calling thread, or, on
    the HTTP server, from the ``decode_request`` call that starts each
    request.  ``submit`` hands its caller's id to the pool thread that
    later runs ``compile`` for the same request object, and the gap
    between the two is recorded as that request's queue wait.
    """

    def __init__(self):
        self.spans: list = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._queued: dict = {}  # id(request) -> (request id, submit time)
        self._restore: list = []

    # -- installation ------------------------------------------------------
    def install(self) -> "Tracer":
        for name, module_name, attribute, attrs in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner, _, member = attribute.rpartition(".")
            holder = getattr(module, owner) if owner else module
            raw = holder.__dict__[member] if owner else getattr(module, member)
            fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
            wrapped = self._wrap(name, entry_point_id(module_name, attribute), fn, attrs)
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(wrapped)
            setattr(holder, member, wrapped)
            self._restore.append((holder, member, raw))
        return self

    def uninstall(self) -> None:
        while self._restore:
            holder, member, raw = self._restore.pop()
            setattr(holder, member, raw)

    def clear(self) -> None:
        self.spans = []

    @contextmanager
    def request(self, rid):
        """Tag this thread's spans with request id ``rid`` while active."""
        previous = getattr(self._local, "rid", None)
        self._local.rid = rid
        try:
            yield
        finally:
            self._local.rid = previous

    # -- recording ---------------------------------------------------------
    def _wrap(self, name, target, fn, attrs_fn):
        local = self._local
        if name == "server.decode":
            before = self._new_http_request
        elif name == "service.submit":
            before = self._note_submit
        elif name == "service.compile":
            before = self._take_queued
        else:
            before = None

        # ``compile`` borrows the submitting request's id only while it runs.
        scoped_rid = name == "service.compile"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not hasattr(local, "stack"):
                local.stack = []
            previous_rid = getattr(local, "rid", None)
            attrs = before(args, kwargs) if before is not None else None
            stack = local.stack
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            rid = getattr(local, "rid", None)
            stack.append(sid)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                if attrs_fn is not None and result is not None:
                    attrs = {**(attrs or {}), **attrs_fn(result)}
                self.spans.append((sid, parent, rid, name, target, start, end, attrs))
                if scoped_rid:
                    local.rid = previous_rid

        return wrapper

    def _new_http_request(self, args, kwargs):
        self._local.rid = f"http-{next(self._ids)}"
        return None

    def _note_submit(self, args, kwargs):
        request = args[1] if len(args) > 1 else kwargs["request"]
        self._queued[id(request)] = (getattr(self._local, "rid", None), time.perf_counter())
        return None

    def _take_queued(self, args, kwargs):
        request = args[1] if len(args) > 1 else kwargs["request"]
        queued = self._queued.pop(id(request), None)
        if queued is None:
            return None
        rid, submitted = queued
        self._local.rid = rid
        return {"queue_wait_s": time.perf_counter() - submitted}

    # -- export ------------------------------------------------------------
    def calls(self) -> dict:
        """Recorded calls per entry point (every wrapped one, zeros too)."""
        counts = {
            entry_point_id(module, attribute): 0
            for _, module, attribute, _ in ENTRY_POINTS
        }
        for span in self.spans:
            counts[span[4]] += 1
        return counts


def span_records(spans: list, process: str) -> list:
    """Span tuples as the JSON objects of ``trace-<workload>.jsonl``."""
    return [
        {
            "process": process,
            "id": sid,
            "parent": parent,
            "request": rid,
            "name": name,
            "entry_point": target,
            "start": start,
            "end": end,
            **({"attrs": attrs} if attrs else {}),
        }
        for sid, parent, rid, name, target, start, end, attrs in spans
    ]


def counter_snapshot(service, server=None) -> dict:
    """The counters the per-layer metrics take before/after deltas of.

    Service-owned counters are read from ``service``; the ``repro.perf``
    registry is process-global and never reset, so only its deltas mean
    anything for one phase.
    """
    from repro.perf import get_perf_registry

    perf = get_perf_registry()
    plan = service.plan_cache.as_dict()
    snapshot = {name: perf.counter(name) for name in PERF_COUNTERS}
    snapshot.update(
        {
            "cache.hits": service.cache.hits,
            "cache.misses": service.cache.misses,
            "plan.hits": plan["plan_hits"],
            "plan.misses": plan["plan_misses"],
            "service.backpressure_waits": service.backpressure_waits,
        }
    )
    if server is not None:
        codes = server.stats()["responses_by_code"]
        snapshot["server.rejected"] = codes.get("429", 0) + codes.get("503", 0)
    return snapshot


def counter_delta(before: dict, after: dict) -> dict:
    return {name: after[name] - before[name] for name in after}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class _SpanIndex:
    """Span lookups for the metric formulas (tuples as recorded)."""

    def __init__(self, spans: list):
        self.spans = spans
        self.by_id = {span[0]: span for span in spans}
        self.children: dict = {}
        for span in spans:
            if span[1] is not None:
                self.children.setdefault(span[1], []).append(span)

    def named(self, name: str) -> list:
        return [span for span in self.spans if span[3] == name]

    def _nested_in_same_name(self, span) -> bool:
        parent = self.by_id.get(span[1])
        while parent is not None:
            if parent[3] == span[3]:
                return True
            parent = self.by_id.get(parent[1])
        return False

    def inclusive_s(self, name: str) -> float:
        """Wall time under ``name``, counting nested same-name spans once."""
        return sum(
            span[6] - span[5]
            for span in self.named(name)
            if not self._nested_in_same_name(span)
        )

    def self_s(self, name: str) -> float:
        """Time in ``name`` spans not covered by any of their child spans."""
        total = 0.0
        for span in self.named(name):
            covered = 0.0
            reach = span[5]
            for child in sorted(self.children.get(span[0], ()), key=lambda s: s[5]):
                lo, hi = max(child[5], reach), min(child[6], span[6])
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            total += span[6] - span[5] - covered
        return total

    def attr_sum(self, name: str, key: str) -> float:
        return sum((span[7] or {}).get(key, 0) for span in self.named(name))


def pct(values, q: float) -> float:
    """Percentile ``q`` (0-100) by linear interpolation; 0.0 when empty."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(spans: list, delta: dict, requests: int, client_latencies_s: list) -> dict:
    """Every per-layer metric from one traced phase.

    ``spans`` are the tuples a :class:`Tracer` recorded in the process
    that ran the service; ``delta`` is :func:`counter_delta` over the
    phase; ``client_latencies_s`` are the per-request latencies the
    client saw.  Times are per request unless the name says otherwise.
    """
    index = _SpanIndex(spans)
    per_req = 1e3 / max(requests, 1)
    iterations = index.attr_sum("grape.optimize", "iterations") + index.attr_sum(
        "grape.optimize_batch", "iterations"
    )
    kernel_s = index.inclusive_s("grape.optimize") + index.inclusive_s("grape.optimize_batch")
    batched_blocks = index.attr_sum("grape.time_search_batch", "blocks")
    single_searches = len(index.named("grape.time_search"))
    compile_spans = index.named("service.compile")
    waits = [
        span[7]["queue_wait_s"] * 1e3
        for span in compile_spans
        if span[7] and "queue_wait_s" in span[7]
    ]
    server_side = [(span[6] - span[5]) for span in compile_spans]
    has_http = bool(index.named("server.decode"))
    return {
        "server.wire_ms": (
            index.inclusive_s("server.decode") + index.inclusive_s("server.encode")
        ) * per_req,
        "server.overhead_ms": (
            (statistics.median(client_latencies_s) - statistics.median(server_side)) * 1e3
            if has_http and server_side
            else 0.0
        ),
        "server.rejected": delta.get("server.rejected", 0),
        "service.queue_wait_p90_ms": pct(waits, 90),
        "service.backpressure_waits": delta["service.backpressure_waits"],
        "pipeline.plan_ms": (
            index.inclusive_s("pipeline.block")
            + index.inclusive_s("pipeline.plan_apply")
            + index.inclusive_s("pipeline.build_plan")
        ) * per_req,
        "pipeline.plan_hit_ratio": _ratio(delta["plan.hits"], delta["plan.hits"] + delta["plan.misses"]),
        "pipeline.scheduler_ms": index.self_s("pipeline.scheduler") * per_req,
        "pipeline.run_many_self_ms": index.self_s("pipeline.run_many") * per_req,
        "pipeline.scheduler_reuse_ratio": _ratio(
            index.attr_sum("pipeline.scheduler", "reused"),
            index.attr_sum("pipeline.scheduler", "keyed"),
        ),
        "core.strict_precompile_ms": index.inclusive_s("core.strict_precompile") * per_req,
        "core.strict_runtime_ms": index.inclusive_s("core.strict_runtime") * per_req,
        "core.flexible_precompile_ms": index.inclusive_s("core.flexible_precompile") * per_req,
        "core.hyperopt_ms": index.inclusive_s("core.hyperopt") * per_req,
        "core.flexible_runtime_ms": index.inclusive_s("core.flexible_runtime") * per_req,
        "core.compile_block_ms": index.inclusive_s("core.compile_block") * per_req,
        "core.cache_hit_ratio": _ratio(delta["cache.hits"], delta["cache.hits"] + delta["cache.misses"]),
        "core.cache_stats_ms": index.inclusive_s("core.cache_stats") * per_req,
        "library.get_ms": index.inclusive_s("library.get") * per_req,
        "library.put_ms": index.inclusive_s("library.put") * per_req,
        "library.neighbor_ms": index.inclusive_s("library.neighbor") * per_req,
        "library.gets_per_req": len(index.named("library.get")) / max(requests, 1),
        "library.puts_per_req": len(index.named("library.put")) / max(requests, 1),
        "grape.iterations_per_req": iterations / max(requests, 1),
        "grape.iteration_ms": _ratio(kernel_s * 1e3, iterations),
        "grape.time_search_ms": (
            index.inclusive_s("grape.time_search") + index.inclusive_s("grape.time_search_batch")
        ) * per_req,
        "grape.probes_per_req": (
            index.attr_sum("grape.time_search", "probes")
            + index.attr_sum("grape.time_search_batch", "probes")
        ) / max(requests, 1),
        "grape.warm_accept_ratio": _ratio(
            delta["grape.warm_start.accepted"],
            delta["grape.warm_start.neighbor_seeds"] + delta["grape.warm_start.kak_seeds"],
        ),
        "grape.batched_share": _ratio(batched_blocks, batched_blocks + single_searches),
    }
