"""Command-line interface: ``python -m repro <command>``.

Small utilities for poking at the reproduction without writing a script:

* ``molecules`` — the VQE-UCCSD benchmark registry (paper Table 2).
* ``gate-table`` — the compiler's basis gate set and pulse durations
  (paper Table 1).
* ``qaoa-info`` — circuit statistics for one QAOA MAXCUT benchmark.
* ``compile`` — run one benchmark through a chosen compilation strategy
  (each ``--method`` maps to a ``repro.service`` registry key) at a random
  parametrization and report pulse duration + runtime latency.
  ``--executor``/``--jobs`` parallelize the independent per-block GRAPE
  searches; ``--cache-dir`` persists GRAPE results on disk so a second
  invocation starts warm (pulse-cache telemetry is printed either way).
* ``compile-batch`` — batch-compile one benchmark at several random
  parametrizations through the cross-circuit block scheduler, reporting
  how many blocks deduplicated across the batch.  With ``--rounds N`` the
  batches stream through one long-lived ``CompilationService``, so later
  rounds reuse every block an earlier round compiled (cross-call dedup).
* ``config show`` — the fully resolved ``ServiceConfig``: every field with
  its value and provenance (default / env / CLI), so debugging ``REPRO_*``
  environment variables never requires a source dive.
* ``worker`` — run one fleet worker against a file-backed work queue:
  claim leased ``BlockJob``\\ s, compile them, write completion records.
  SIGTERM drains the in-flight job before exit; ``--max-jobs`` and
  ``--idle-exit`` bound a worker's lifetime for tests and batch runs;
  ``--announce`` publishes a registration record and ``--host-label``
  simulates a distinct host on one box.
* ``fleet status`` — inspect a fleet queue directory: pending/leased job
  counts, per-lease age and staleness, worker heartbeats grouped by
  host; ``--json`` emits the machine-readable snapshot.
* ``serve`` — run the HTTP compilation frontend
  (:mod:`repro.server`): ``POST /v1/compile`` over one
  ``CompilationService``, with SIGTERM draining in-flight requests
  (new compiles get 503) before exit.
* ``remote-compile`` — compile one benchmark against a running server
  over HTTP; ``--verify-local`` recompiles in-process and checks the
  returned pulses are bit-identical.
* ``cache-stats`` — inspect a persistent pulse-cache directory: shard
  occupancy, index size, evictions, prefetch counters, plus persistent
  worker-pool telemetry.  A directory that does not exist yet reports an
  empty cache (and is not created).
* ``library stats`` / ``library gc`` — operate directly on the sharded
  pulse library (occupancy report; LRU eviction down to a size budget).

Every command prints plain text and returns a process exit code, so the
module is equally usable from tests (``main([...])``) and the shell.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.analysis.tables import format_table
from repro.config import GATE_DURATIONS_NS

__all__ = ["build_parser", "main"]


def _cmd_molecules(_args) -> int:
    from repro.vqe.molecules import MOLECULES

    rows = [
        (
            spec.name,
            spec.num_qubits,
            spec.num_parameters,
            f"{spec.paper_gate_runtime_ns:g}",
        )
        for spec in MOLECULES.values()
    ]
    print(
        format_table(
            ("molecule", "qubits", "#params", "paper runtime (ns)"),
            rows,
            title="VQE-UCCSD benchmarks (paper Table 2)",
        )
    )
    return 0


def _cmd_gate_table(_args) -> int:
    rows = [(name, f"{ns:g}") for name, ns in sorted(GATE_DURATIONS_NS.items())]
    print(
        format_table(
            ("gate", "pulse duration (ns)"),
            rows,
            title="Gate-based compilation lookup table (paper Table 1)",
        )
    )
    return 0


def _cmd_qaoa_info(args) -> int:
    from repro.qaoa import maxcut_problem, qaoa_circuit
    from repro.transpile import transpile
    from repro.transpile.schedule import asap_schedule

    problem = maxcut_problem(args.kind, args.nodes, seed=args.seed)
    circuit = transpile(qaoa_circuit(problem, args.p))
    schedule = asap_schedule(circuit.bind_parameters([0.5] * len(circuit.parameters)))
    rows = [
        ("graph", problem.name),
        ("edges", len(problem.edges)),
        ("optimal cut", problem.optimal_cut),
        ("qubits", circuit.num_qubits),
        ("parameters", len(circuit.parameters)),
        ("gates", len(circuit)),
        ("gate-based runtime (ns)", f"{schedule.duration_ns:.1f}"),
    ]
    print(format_table(("property", "value"), rows, title=f"QAOA p={args.p}"))
    return 0


def _benchmark_circuit(spec: str):
    from repro.qaoa import maxcut_problem, qaoa_circuit
    from repro.transpile import transpile
    from repro.vqe import get_molecule

    parts = spec.split(":")
    if parts[0] == "vqe" and len(parts) == 2:
        return transpile(get_molecule(parts[1]).ansatz())
    if parts[0] == "qaoa" and len(parts) == 4:
        kind, nodes, p = parts[1], int(parts[2]), int(parts[3])
        return transpile(qaoa_circuit(maxcut_problem(kind, nodes), p))
    raise ValueError(
        f"bad benchmark spec {spec!r}; use vqe:<molecule> or qaoa:<kind>:<nodes>:<p>"
    )


#: CLI ``--method`` name → service strategy registry key.
METHOD_STRATEGIES = {
    "gate": "gate",
    "step": "step-function",
    "strict": "strict-partial",
    "flexible": "flexible-partial",
    "grape": "full-grape",
}


def _service_config_from_args(args):
    """The resolved ServiceConfig: environment first, CLI flags override."""
    from repro.service import ServiceConfig

    config = ServiceConfig.from_env()
    overrides = {}
    if getattr(args, "executor", None):
        overrides["executor"] = args.executor
    if getattr(args, "jobs", None):
        overrides["max_workers"] = args.jobs
    if getattr(args, "cache_dir", None):
        overrides["cache_dir"] = args.cache_dir
    if getattr(args, "dispatcher", None):
        overrides["dispatcher"] = args.dispatcher
    if getattr(args, "fleet_dir", None):
        overrides["fleet_dir"] = args.fleet_dir
    if getattr(args, "fleet_workers", None) is not None:
        overrides["fleet_workers"] = args.fleet_workers
    if getattr(args, "queue_depth", None) is not None:
        overrides["queue_depth"] = args.queue_depth
    if getattr(args, "fleet_autoscale", None) is not None:
        overrides["fleet_autoscale"] = args.fleet_autoscale
    if getattr(args, "fleet_min_workers", None) is not None:
        overrides["fleet_min_workers"] = args.fleet_min_workers
    if getattr(args, "fleet_max_workers", None) is not None:
        overrides["fleet_max_workers"] = args.fleet_max_workers
    return config.replace(**overrides) if overrides else config


def _cmd_compile(args) -> int:
    from repro.core import default_device_for
    from repro.pulse.grape import GrapeHyperparameters, GrapeSettings
    from repro.service import CompilationService, CompileRequest

    try:
        circuit = _benchmark_circuit(args.benchmark)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    settings = GrapeSettings(dt_ns=args.dt, target_fidelity=args.fidelity)
    hyper = GrapeHyperparameters(0.05, 0.002, max_iterations=args.iterations)
    rng = np.random.default_rng(args.seed)
    values = list(rng.uniform(-np.pi / 2, np.pi / 2, size=len(circuit.parameters)))
    config = _service_config_from_args(args)
    if args.jobs and config.executor == "serial":
        print(
            "note: --jobs has no effect with the serial executor; "
            "pass --executor thread|process",
            file=sys.stderr,
        )

    strategy = METHOD_STRATEGIES[args.method]
    options = {"tuning_samples": 1} if args.method == "flexible" else {}
    with CompilationService(
        config=config,
        device=default_device_for(circuit),
        settings=settings,
        hyperparameters=hyper,
    ) as service:
        result = service.compile(
            CompileRequest(
                circuit=circuit,
                values=values,
                strategy=strategy,
                max_block_width=args.block_width,
                options=options,
            )
        )
        stats = service.stats()["cache"]
        executor_name = service.executor.name

    if result.precompile_report is not None:
        precompute = f"{result.precompile_report.wall_time_s:.1f} s"
    elif args.method == "grape":
        precompute = "0 s (all work at runtime)"
    else:
        precompute = "0 s (lookup table)"
    compiled = result.compiled
    rows = [
        ("benchmark", args.benchmark),
        ("method", args.method),
        ("strategy", strategy),
        ("qubits", circuit.num_qubits),
        ("pulse duration (ns)", f"{compiled.pulse_duration_ns:.1f}"),
        ("runtime latency (s)", f"{compiled.runtime_latency_s:.3f}"),
        ("runtime GRAPE iterations", compiled.runtime_iterations),
        ("precompute", precompute),
        ("executor", executor_name),
        ("cache backend", stats["backend"]),
        # Block-level hits travel back from executor workers with the
        # outcomes, so they stay accurate even under the process pool
        # (whose workers mutate forked cache copies, not this one).
        ("block cache hits", compiled.cache_hits),
        ("cache hits / misses", f"{stats['hits']} / {stats['misses']}"),
    ]
    if "disk_hits" in stats:
        rows.append(("cache disk hits", stats["disk_hits"]))
        rows.append(("cache persisted entries", stats["persisted_entries"]))
    print(format_table(("property", "value"), rows, title="compile result"))
    return 0


def _cmd_compile_batch(args) -> int:
    from repro.core import default_device_for
    from repro.pulse.grape import GrapeHyperparameters, GrapeSettings
    from repro.service import CompilationService, CompileRequest

    if args.batch < 1:
        print(f"error: --batch must be >= 1, got {args.batch}", file=sys.stderr)
        return 2
    if args.rounds < 1:
        print(f"error: --rounds must be >= 1, got {args.rounds}", file=sys.stderr)
        return 2
    try:
        circuit = _benchmark_circuit(args.benchmark)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    settings = GrapeSettings(dt_ns=args.dt, target_fidelity=args.fidelity)
    hyper = GrapeHyperparameters(0.05, 0.002, max_iterations=args.iterations)
    rng = np.random.default_rng(args.seed)
    # All rounds stream through ONE long-lived service, so round r+1 pays
    # only for blocks (θ-dependent ones, typically) it has never seen.
    totals = {"total": 0, "dispatched": 0, "deduped": 0, "reused": 0}
    round_rows = []
    with CompilationService(
        config=_service_config_from_args(args),
        device=default_device_for(circuit),
        settings=settings,
        hyperparameters=hyper,
    ) as service:
        for round_index in range(args.rounds):
            values_list = [
                list(
                    rng.uniform(
                        -np.pi / 2, np.pi / 2, size=len(circuit.parameters)
                    )
                )
                for _ in range(args.batch)
            ]
            results = service.compile_batch(
                [
                    CompileRequest(
                        circuit=circuit,
                        values=values,
                        strategy="full-grape",
                        max_block_width=args.block_width,
                    )
                    for values in values_list
                ]
            )
            scheduler = results[0].metadata["scheduler"] or {}
            totals["total"] += scheduler.get("total_blocks", 0)
            totals["dispatched"] += scheduler.get("dispatched_tasks", 0)
            totals["deduped"] += scheduler.get("deduped_blocks", 0)
            totals["reused"] += scheduler.get("reused_blocks", 0)
            round_rows.append(
                (
                    f"round {round_index}",
                    f"dispatched={scheduler.get('dispatched_tasks')} "
                    f"deduped={scheduler.get('deduped_blocks')} "
                    f"reused={scheduler.get('reused_blocks')}",
                )
            )
        executor_name = service.executor.name
        plan_stats = service.stats()["plan_cache"]

    shared = totals["deduped"] + totals["reused"]
    rows = [
        ("benchmark", args.benchmark),
        ("batch size", args.batch),
        ("rounds", args.rounds),
        ("qubits", circuit.num_qubits),
        ("total blocks", totals["total"]),
        ("unique blocks compiled", totals["dispatched"]),
        ("deduplicated blocks", totals["deduped"]),
        ("reused blocks (cross-call)", totals["reused"]),
        (
            "dedup ratio",
            round(shared / totals["total"], 4) if totals["total"] else 0.0,
        ),
        ("executor", executor_name),
        ("plan hits", plan_stats["plan_hits"]),
        ("plan misses", plan_stats["plan_misses"]),
        ("blocking passes skipped", plan_stats["blocking_passes_skipped"]),
        *round_rows,
        (
            "pulse durations (ns, last round)",
            ", ".join(f"{r.pulse_duration_ns:.1f}" for r in results),
        ),
        (
            "GRAPE iterations (last round)",
            ", ".join(str(r.runtime_iterations) for r in results),
        ),
    ]
    print(format_table(("property", "value"), rows, title="batch compile result"))
    return 0


def _cmd_config_show(args) -> int:
    """Print the fully resolved ServiceConfig with per-field provenance."""
    from repro.errors import ReproError
    from repro.service import ServiceConfig

    config, sources = ServiceConfig.from_env_with_sources()
    overrides = {}
    for field_name, arg_name in (
        ("executor", "executor"),
        ("max_workers", "jobs"),
        ("submit_workers", "submit_workers"),
        ("cache_dir", "cache_dir"),
        ("cache_shards", "cache_shards"),
        ("cache_budget_mb", "cache_budget_mb"),
        ("preset", "preset"),
        ("scheduler_state_path", "scheduler_state"),
        ("grape_batch_size", "grape_batch_size"),
        ("warm_start_max_dist", "warm_start_max_dist"),
        ("dispatcher", "dispatcher"),
        ("fleet_dir", "fleet_dir"),
        ("fleet_workers", "fleet_workers"),
        ("queue_depth", "queue_depth"),
        ("fleet_lease_ttl_s", "fleet_lease_ttl"),
        ("fleet_heartbeat_s", "fleet_heartbeat"),
        ("fleet_min_workers", "fleet_min_workers"),
        ("fleet_max_workers", "fleet_max_workers"),
        ("server_host", "server_host"),
        ("server_port", "server_port"),
        ("server_max_body_mb", "server_max_body_mb"),
        ("server_ticket_ttl_s", "server_ticket_ttl"),
    ):
        value = getattr(args, arg_name, None)
        if value is not None:
            overrides[field_name] = value
            sources[field_name] = "CLI"
    if getattr(args, "prefetch", None) is not None:
        overrides["prefetch"] = args.prefetch
        sources["prefetch"] = "CLI"
    if getattr(args, "fleet_autoscale", None) is not None:
        overrides["fleet_autoscale"] = args.fleet_autoscale
        sources["fleet_autoscale"] = "CLI"
    if getattr(args, "grape_batch", None) is not None:
        overrides["grape_batch"] = args.grape_batch
        sources["grape_batch"] = "CLI"
    if getattr(args, "warm_start", None) is not None:
        overrides["warm_start"] = args.warm_start
        sources["warm_start"] = "CLI"
    try:
        config = config.replace(**overrides) if overrides else config
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rows = [
        (name, "(unset)" if value is None else value, sources[name])
        for name, value in config.as_dict().items()
    ]
    print(
        format_table(
            ("field", "value", "source"),
            rows,
            title="resolved ServiceConfig (env < CLI)",
        )
    )
    return 0


def _pool_rows() -> list:
    from repro.pipeline import persistent_executor_stats

    rows = []
    for stats in persistent_executor_stats():
        label = f"pool {stats['executor']}×{stats['max_workers']}"
        rows.append(
            (
                label,
                f"pools_created={stats['pools_created']} "
                f"map_calls={stats['map_calls']}",
            )
        )
    return rows


def _cache_stats_rows(directory, stats) -> list:
    """One row set for both the live and the never-created cache paths,
    so the two reports cannot drift apart.  ``stats`` is a swept report
    (``PersistentPulseCache.stats(sweep=True)``)."""
    library = stats["library"]
    return [
        ("directory", str(directory)),
        ("persisted entries", stats["persisted_entries"]),
        ("size (KiB)", f"{library['total_bytes'] / 1024:.1f}"),
        ("schema version", stats["schema_version"]),
        ("hits / misses", f"{stats['hits']} / {stats['misses']}"),
        ("shards", library["shards"]),
        ("nonempty shards", library["nonempty_shards"]),
        ("max entries per shard", library["max_shard_entries"]),
        ("index size (KiB)", f"{library['index_bytes'] / 1024:.1f}"),
        ("evictions", library["evictions"]),
        ("migrated legacy entries", library["migrated_entries"]),
        (
            "prefetches / prefetch hits",
            f"{library['prefetches']} / {library['prefetch_hits']}",
        ),
    ]


def _cmd_cache_stats(args) -> int:
    from pathlib import Path

    from repro.core import PersistentPulseCache
    from repro.core.cache import CACHE_SCHEMA_VERSION
    from repro.library import PulseLibrary
    from repro.service import ServiceConfig

    if not Path(args.dir).is_dir():
        # A cache directory that was never written to is an *empty cache*,
        # not an error: report zeros without creating the directory.
        stats = {
            "persisted_entries": 0,
            "schema_version": CACHE_SCHEMA_VERSION,
            "hits": 0,
            "misses": 0,
            "library": PulseLibrary.empty_stats(args.dir),
        }
        rows = _cache_stats_rows(args.dir, stats)
        title = "persistent pulse cache (empty — not created yet)"
    else:
        options = ServiceConfig.from_env().library_options()
        cache = PersistentPulseCache(args.dir, **options)
        rows = _cache_stats_rows(cache.directory, cache.stats(sweep=True))
        title = "persistent pulse cache"
    rows.extend(_pool_rows())
    print(format_table(("property", "value"), rows, title=title))
    return 0


def _cmd_library_stats(args) -> int:
    from pathlib import Path

    from repro.library import PulseLibrary
    from repro.service import ServiceConfig

    if not Path(args.dir).is_dir():
        # Same contract as cache-stats: a never-created library is empty,
        # and inspecting it must not create it.  ``empty_stats`` mirrors
        # the live ``{**stats(), **sweep()}`` schema exactly.
        stats = PulseLibrary.empty_stats(args.dir)
        title = "pulse library (empty — not created yet)"
    else:
        options = ServiceConfig.from_env().library_options()
        library = PulseLibrary(args.dir, **options)
        stats = {**library.stats(), **library.sweep()}
        title = "pulse library"
    rows = [(key, stats[key]) for key in sorted(stats)]
    print(format_table(("property", "value"), rows, title=title))
    return 0


def _cmd_library_gc(args) -> int:
    from pathlib import Path

    from repro.library import PulseLibrary
    from repro.service import ServiceConfig

    if not Path(args.dir).is_dir():
        print(f"error: no library directory at {args.dir}", file=sys.stderr)
        return 2
    # Without --budget-mb, gc falls back to the library's budget, which
    # comes from REPRO_CACHE_BUDGET_MB here.
    options = ServiceConfig.from_env().library_options()
    report = PulseLibrary(args.dir, **options).gc(args.budget_mb)
    rows = [(key, value) for key, value in sorted(report.as_dict().items())]
    print(format_table(("property", "value"), rows, title="pulse library gc"))
    return 0


def _cmd_worker(args) -> int:
    from repro.errors import ReproError
    from repro.fleet import FleetWorker
    from repro.service import ServiceConfig

    try:
        worker = FleetWorker(
            args.fleet_dir,
            cache_dir=args.cache_dir,
            config=ServiceConfig.from_env(),
            lease_ttl_s=args.lease_ttl,
            poll_s=args.poll,
            heartbeat_s=args.heartbeat,
            max_jobs=args.max_jobs,
            idle_exit_s=args.idle_exit,
            worker_id=args.worker_id,
            host_label=args.host_label,
            announce=args.announce,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    worker.install_signal_handlers()
    print(
        f"worker {worker.worker_id} pulling from {args.fleet_dir}",
        file=sys.stderr,
    )
    return worker.run()


def _empty_fleet_status(directory: str) -> dict:
    """The ``status()`` shape for a queue directory nobody created yet."""
    return {
        "directory": directory,
        "pending_jobs": 0,
        "leased_jobs": 0,
        "completed_results": 0,
        "leases": [],
        "workers": [],
        "hosts": {},
    }


def _cmd_fleet_status(args) -> int:
    import json
    from pathlib import Path

    from repro.fleet import FleetQueue

    if not Path(args.dir).is_dir():
        # Same contract as cache-stats: a queue directory nobody has
        # written to is an *empty queue*, and inspecting it must not
        # create it.
        status = _empty_fleet_status(args.dir)
        title = "fleet queue (empty — not created yet)"
    else:
        status = FleetQueue(args.dir).status()
        title = "fleet queue"
    if args.json:
        # The machine-readable snapshot the autoscaler tests and the
        # /v1/stats handler consume — one JSON object, nothing else.
        print(json.dumps(status, indent=2, sort_keys=True))
        return 0
    rows = [
        ("directory", status["directory"]),
        ("pending jobs", status["pending_jobs"]),
        ("leased jobs", status["leased_jobs"]),
        ("completed results", status["completed_results"]),
    ]
    for host, group in sorted(status["hosts"].items()):
        rows.append(
            (
                f"host {host}",
                f"workers={group['workers']} active={group['active']} "
                f"leases={group['leases']} jobs_done={group['jobs_done']}",
            )
        )
    for lease in status["leases"]:
        state = "STALE" if lease["stale"] else "live"
        rows.append(
            (
                f"lease {lease['job_id']}",
                f"worker={lease['worker']} host={lease.get('host')} "
                f"age={lease['age_s']:.1f}s "
                f"heartbeat={lease['heartbeat_age_s']:.1f}s "
                f"reclaims={lease['reclaims']} {state}",
            )
        )
    for worker in status["workers"]:
        announced = " announced" if worker.get("announced") else ""
        rows.append(
            (
                f"worker {worker['worker']}",
                f"pid={worker['pid']} host={worker.get('host')} "
                f"state={worker['state']} "
                f"jobs_done={worker['jobs_done']} "
                f"heartbeat={worker['heartbeat_age_s']:.1f}s{announced}",
            )
        )
    print(format_table(("property", "value"), rows, title=title))
    return 0


def _cmd_serve(args) -> int:
    import signal
    import threading

    from repro.server.http import CompilationServer
    from repro.service import CompilationService

    config = _service_config_from_args(args)
    host = args.host if args.host is not None else config.server_host
    port = args.port if args.port is not None else config.server_port
    service = CompilationService(config=config)
    server = CompilationServer(
        service,
        host=host,
        port=port,
        max_body_bytes=int(config.server_max_body_mb * 1024 * 1024),
        ticket_ttl_s=config.server_ticket_ttl_s,
    )
    stop = threading.Event()

    def _on_signal(signum, frame):
        # Flip to draining immediately (new compiles get 503) and let the
        # main loop run the graceful shutdown.
        server.begin_drain()
        stop.set()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    server.start()
    print(f"serving on {server.url} (SIGTERM drains)", file=sys.stderr)
    try:
        while not stop.wait(0.2):
            pass
    finally:
        print("draining in-flight requests ...", file=sys.stderr)
        drained = server.drain(grace_s=args.grace)
        server.close()
        # Close the service last: accepted ticket futures finish compiling
        # on its submit pool during this drain.
        service.close()
        if not drained:
            print(
                f"drain exceeded {args.grace:.0f}s grace; exited anyway",
                file=sys.stderr,
            )
    return 0


def _pulses_identical(a, b) -> bool:
    """Bit-exact comparison of two compiled pulses' programs."""
    if len(a.program.schedules) != len(b.program.schedules):
        return False
    for left, right in zip(a.program.schedules, b.program.schedules):
        if (
            left.qubits != right.qubits
            or left.dt_ns != right.dt_ns
            or left.channel_names != right.channel_names
            or left.controls.shape != right.controls.shape
            or not np.array_equal(left.controls, right.controls)
        ):
            return False
    return True


def _cmd_remote_compile(args) -> int:
    from repro.pulse.grape import GrapeHyperparameters, GrapeSettings
    from repro.server.client import ServerClient
    from repro.service import CompileRequest

    try:
        circuit = _benchmark_circuit(args.benchmark)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rng = np.random.default_rng(args.seed)
    values = list(
        rng.uniform(-np.pi / 2, np.pi / 2, size=len(circuit.parameters))
    )
    request = CompileRequest(
        circuit=circuit,
        values=values,
        strategy=METHOD_STRATEGIES[args.method],
        settings=GrapeSettings(dt_ns=args.dt, target_fidelity=args.fidelity),
        hyperparameters=GrapeHyperparameters(
            0.05, 0.002, max_iterations=args.iterations
        ),
        max_block_width=args.block_width,
    )
    client = ServerClient(args.url, timeout_s=args.timeout)
    if args.ticket:
        ticket = client.submit(request)
        print(f"ticket {ticket}", file=sys.stderr)
        result = client.result(
            ticket, request=request, timeout_s=args.timeout
        )
    else:
        result = client.compile(request)
    compiled = result.compiled
    rows = [
        ("server", args.url),
        ("benchmark", args.benchmark),
        ("method", args.method),
        ("strategy", request.strategy),
        ("mode", "ticket" if args.ticket else "sync"),
        ("pulse duration (ns)", f"{compiled.pulse_duration_ns:.1f}"),
        ("runtime latency (s)", f"{compiled.runtime_latency_s:.3f}"),
        ("runtime GRAPE iterations", compiled.runtime_iterations),
        ("server wall time (s)", f"{result.wall_time_s:.3f}"),
    ]
    verified = None
    if args.verify_local:
        from repro.service import CompilationService

        # Recompile in-process with the local environment's config, minus
        # anything non-local: the in-process run must not route through a
        # fleet or read a warm on-disk cache the server also writes.
        config = _service_config_from_args(args).replace(
            dispatcher="executor", fleet_dir=None, cache_dir=None
        )
        with CompilationService(config=config) as service:
            local = service.compile(request)
        verified = _pulses_identical(compiled, local.compiled)
        rows.append(("bit-identical to local compile", verified))
    print(format_table(("property", "value"), rows, title="remote compile"))
    if verified is False:
        print("error: remote pulses differ from local compile", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser for the ``repro`` CLI (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Partial compilation of variational algorithms (MICRO '19 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("molecules", help="list the VQE benchmark molecules").set_defaults(
        func=_cmd_molecules
    )
    sub.add_parser("gate-table", help="print the Table-1 gate durations").set_defaults(
        func=_cmd_gate_table
    )

    qaoa = sub.add_parser("qaoa-info", help="stats for one QAOA benchmark")
    qaoa.add_argument("--kind", choices=("3regular", "erdosrenyi"), default="3regular")
    qaoa.add_argument("--nodes", type=int, default=6)
    qaoa.add_argument("--p", type=int, default=1)
    qaoa.add_argument("--seed", type=int, default=0)
    qaoa.set_defaults(func=_cmd_qaoa_info)

    compile_ = sub.add_parser("compile", help="compile one benchmark")
    compile_.add_argument(
        "--benchmark",
        required=True,
        help="vqe:<molecule> or qaoa:<kind>:<nodes>:<p>, e.g. vqe:H2",
    )
    compile_.add_argument(
        "--method",
        choices=tuple(METHOD_STRATEGIES),
        default="gate",
        help="compilation strategy (each maps to a service registry key)",
    )
    compile_.add_argument("--dt", type=float, default=0.5, help="GRAPE slice (ns)")
    compile_.add_argument("--fidelity", type=float, default=0.95)
    compile_.add_argument("--iterations", type=int, default=150)
    compile_.add_argument("--block-width", type=int, default=2)
    compile_.add_argument("--seed", type=int, default=0)
    from repro.config import EXECUTOR_CHOICES

    compile_.add_argument(
        "--executor",
        choices=EXECUTOR_CHOICES,
        default=None,
        help="dispatch of independent per-block GRAPE searches; the "
        "*-persistent variants keep one worker pool warm across every "
        "map of the run (default: REPRO_EXECUTOR or auto)",
    )
    compile_.add_argument(
        "--jobs", type=int, default=None, help="worker count for parallel executors"
    )
    compile_.add_argument(
        "--cache-dir",
        default=None,
        help="persist GRAPE pulses here; a second run starts warm",
    )
    compile_.set_defaults(func=_cmd_compile)

    batch = sub.add_parser(
        "compile-batch",
        help="batch-compile one benchmark at several parametrizations "
        "through the cross-circuit block dedup scheduler",
    )
    batch.add_argument(
        "--benchmark",
        required=True,
        help="vqe:<molecule> or qaoa:<kind>:<nodes>:<p>, e.g. vqe:H2",
    )
    batch.add_argument(
        "--batch", type=int, default=3, help="number of parametrizations"
    )
    batch.add_argument(
        "--rounds",
        type=int,
        default=1,
        help="feed this many successive batches through ONE long-lived "
        "VariationalSession: later rounds reuse every block an earlier "
        "round compiled (cross-call dedup)",
    )
    batch.add_argument("--dt", type=float, default=0.5, help="GRAPE slice (ns)")
    batch.add_argument("--fidelity", type=float, default=0.95)
    batch.add_argument("--iterations", type=int, default=150)
    batch.add_argument("--block-width", type=int, default=2)
    batch.add_argument("--seed", type=int, default=0)
    batch.add_argument("--executor", choices=EXECUTOR_CHOICES, default=None)
    batch.add_argument("--jobs", type=int, default=None)
    batch.add_argument("--cache-dir", default=None)
    from repro.service.config import DISPATCHER_CHOICES

    batch.add_argument(
        "--dispatcher",
        choices=DISPATCHER_CHOICES,
        default=None,
        help="'queue' routes fixed blocks through a multi-process fleet "
        "(default: REPRO_DISPATCHER or executor)",
    )
    batch.add_argument(
        "--fleet-dir",
        default=None,
        dest="fleet_dir",
        help="fleet queue directory for --dispatcher queue "
        "(default: REPRO_FLEET_DIR, else <cache-dir>/fleet)",
    )
    batch.add_argument(
        "--fleet-workers",
        type=int,
        default=None,
        dest="fleet_workers",
        help="local worker processes the queue dispatcher spawns "
        "(default: REPRO_FLEET_WORKERS; 0 compiles inline)",
    )
    batch.add_argument(
        "--queue-depth",
        type=int,
        default=None,
        dest="queue_depth",
        help="bound concurrent service submissions; further submit() "
        "calls block (default: REPRO_QUEUE_DEPTH, else unbounded)",
    )
    batch.set_defaults(func=_cmd_compile_batch)

    worker = sub.add_parser(
        "worker",
        help="run one fleet worker: claim queued BlockJobs, compile, "
        "write completion records (SIGTERM drains the in-flight job)",
    )
    worker.add_argument(
        "--fleet-dir",
        required=True,
        dest="fleet_dir",
        help="fleet queue directory shared with the dispatcher",
    )
    worker.add_argument(
        "--cache-dir",
        default=None,
        dest="cache_dir",
        help="persistent pulse cache for compiled blocks (default: the "
        "per-job cache_dir stamped by the dispatcher, else in-memory)",
    )
    worker.add_argument(
        "--lease-ttl",
        type=float,
        default=30.0,
        dest="lease_ttl",
        help="seconds without a heartbeat before another worker may "
        "reclaim this worker's lease",
    )
    worker.add_argument(
        "--poll",
        type=float,
        default=0.2,
        help="idle sleep between queue polls (seconds)",
    )
    worker.add_argument(
        "--max-jobs",
        type=int,
        default=None,
        dest="max_jobs",
        help="exit after completing this many jobs (default: run forever)",
    )
    worker.add_argument(
        "--idle-exit",
        type=float,
        default=None,
        dest="idle_exit",
        help="exit after this many consecutive idle seconds "
        "(default: keep polling)",
    )
    worker.add_argument(
        "--worker-id",
        default=None,
        dest="worker_id",
        help="identity used in leases and heartbeats (default: host-pid)",
    )
    worker.add_argument(
        "--heartbeat",
        type=float,
        default=None,
        help="lease-renewal interval in seconds while compiling "
        "(default: lease-ttl / 3; must be shorter than --lease-ttl)",
    )
    worker.add_argument(
        "--host-label",
        default=None,
        dest="host_label",
        help="hostname written into leases/heartbeats instead of the real "
        "one (simulated multi-host testing; disables same-host pid probes)",
    )
    worker.add_argument(
        "--announce",
        action="store_true",
        help="publish a registration record (start time, knobs, version) "
        "in this worker's heartbeat, shown by fleet status",
    )
    worker.set_defaults(func=_cmd_worker)

    fleet = sub.add_parser(
        "fleet", help="operate on a fleet work-queue directory"
    )
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)
    fleet_status = fleet_sub.add_parser(
        "status",
        help="queue depth, leases (with staleness), and worker heartbeats",
    )
    fleet_status.add_argument("--dir", required=True, help="fleet queue directory")
    fleet_status.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable status snapshot as JSON",
    )
    fleet_status.set_defaults(func=_cmd_fleet_status)

    serve = sub.add_parser(
        "serve",
        help="run the HTTP compilation frontend over one "
        "CompilationService (SIGTERM drains in-flight requests)",
    )
    serve.add_argument(
        "--host",
        default=None,
        help="bind address (default: REPRO_SERVER_HOST, else 127.0.0.1)",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=None,
        help="bind port; 0 picks an ephemeral one "
        "(default: REPRO_SERVER_PORT, else 8642)",
    )
    serve.add_argument(
        "--grace",
        type=float,
        default=30.0,
        help="seconds to wait for in-flight requests on shutdown",
    )
    serve.add_argument("--executor", choices=EXECUTOR_CHOICES, default=None)
    serve.add_argument(
        "--jobs", type=int, default=None, help="max_workers override"
    )
    serve.add_argument(
        "--cache-dir",
        default=None,
        dest="cache_dir",
        help="persistent pulse cache shared with fleet workers",
    )
    serve.add_argument(
        "--dispatcher", choices=DISPATCHER_CHOICES, default=None
    )
    serve.add_argument("--fleet-dir", default=None, dest="fleet_dir")
    serve.add_argument(
        "--fleet-workers", type=int, default=None, dest="fleet_workers"
    )
    serve.add_argument(
        "--queue-depth",
        type=int,
        default=None,
        dest="queue_depth",
        help="bounded admission; a full queue answers 429",
    )
    serve.add_argument(
        "--autoscale",
        action=argparse.BooleanOptionalAction,
        default=None,
        dest="fleet_autoscale",
        help="scale fleet workers from queue depth instead of a fixed "
        "count (default: REPRO_FLEET_AUTOSCALE)",
    )
    serve.add_argument(
        "--min-workers",
        type=int,
        default=None,
        dest="fleet_min_workers",
        help="autoscaler floor (default: REPRO_FLEET_MIN_WORKERS)",
    )
    serve.add_argument(
        "--max-workers",
        type=int,
        default=None,
        dest="fleet_max_workers",
        help="autoscaler ceiling (default: REPRO_FLEET_MAX_WORKERS)",
    )
    serve.set_defaults(func=_cmd_serve)

    remote = sub.add_parser(
        "remote-compile",
        help="compile one benchmark against a running repro server "
        "over HTTP",
    )
    remote.add_argument(
        "--url", required=True, help="server base URL, e.g. http://host:8642"
    )
    remote.add_argument(
        "--benchmark",
        required=True,
        help="vqe:<molecule> or qaoa:<kind>:<nodes>:<p>, e.g. vqe:H2",
    )
    remote.add_argument(
        "--method", choices=tuple(METHOD_STRATEGIES), default="grape"
    )
    remote.add_argument("--dt", type=float, default=0.5, help="GRAPE slice (ns)")
    remote.add_argument("--fidelity", type=float, default=0.95)
    remote.add_argument("--iterations", type=int, default=150)
    remote.add_argument("--block-width", type=int, default=2)
    remote.add_argument("--seed", type=int, default=0)
    remote.add_argument(
        "--ticket",
        action="store_true",
        help="use the async ticket mode and poll /v1/jobs for the result",
    )
    remote.add_argument(
        "--timeout",
        type=float,
        default=600.0,
        help="HTTP round-trip (and ticket-poll) timeout in seconds",
    )
    remote.add_argument(
        "--verify-local",
        action="store_true",
        dest="verify_local",
        help="also compile in-process and fail unless the remote pulses "
        "are bit-identical",
    )
    remote.set_defaults(func=_cmd_remote_compile)

    cache_ = sub.add_parser(
        "cache-stats", help="inspect a persistent pulse-cache directory"
    )
    cache_.add_argument("--dir", required=True, help="cache directory to inspect")
    cache_.set_defaults(func=_cmd_cache_stats)

    library = sub.add_parser(
        "library", help="operate on a sharded pulse library directory"
    )
    library_sub = library.add_subparsers(dest="library_command", required=True)
    lib_stats = library_sub.add_parser(
        "stats", help="layout, occupancy, and index telemetry"
    )
    lib_stats.add_argument("--dir", required=True, help="library directory")
    lib_stats.set_defaults(func=_cmd_library_stats)
    lib_gc = library_sub.add_parser(
        "gc", help="reconcile the index and evict LRU entries to a size budget"
    )
    lib_gc.add_argument("--dir", required=True, help="library directory")
    lib_gc.add_argument(
        "--budget-mb",
        type=float,
        default=None,
        help="evict least-recently-used entries until under this many MiB "
        "(default: REPRO_CACHE_BUDGET_MB, else reconcile only)",
    )
    lib_gc.set_defaults(func=_cmd_library_gc)

    config_ = sub.add_parser(
        "config", help="inspect the resolved service configuration"
    )
    config_sub = config_.add_subparsers(dest="config_command", required=True)
    show = config_sub.add_parser(
        "show",
        help="print the fully resolved ServiceConfig with per-field "
        "provenance (default / env / CLI)",
    )
    show.add_argument("--executor", choices=EXECUTOR_CHOICES, default=None)
    show.add_argument("--jobs", type=int, default=None, help="max_workers override")
    show.add_argument(
        "--submit-workers",
        type=int,
        default=None,
        dest="submit_workers",
        help="submit_workers override (service submit() thread pool size)",
    )
    show.add_argument("--cache-dir", default=None)
    from repro.config import CACHE_SHARD_CHOICES

    show.add_argument(
        "--cache-shards", type=int, choices=CACHE_SHARD_CHOICES, default=None
    )
    show.add_argument("--cache-budget-mb", type=float, default=None)
    show.add_argument(
        "--prefetch",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="--prefetch / --no-prefetch override",
    )
    show.add_argument("--preset", default=None)
    show.add_argument(
        "--scheduler-state",
        default=None,
        help="scheduler_state_path override",
    )
    show.add_argument(
        "--grape-batch",
        action=argparse.BooleanOptionalAction,
        default=None,
        dest="grape_batch",
        help="--grape-batch / --no-grape-batch override (cross-block "
        "batched GRAPE kernel)",
    )
    show.add_argument(
        "--grape-batch-size",
        type=int,
        default=None,
        dest="grape_batch_size",
        help="grape_batch_size override (blocks per batched group)",
    )
    show.add_argument(
        "--warm-start",
        action=argparse.BooleanOptionalAction,
        default=None,
        dest="warm_start",
        help="--warm-start / --no-warm-start override (seed GRAPE from "
        "the nearest cached pulse or the analytic KAK decomposition)",
    )
    show.add_argument(
        "--warm-start-max-dist",
        type=float,
        default=None,
        dest="warm_start_max_dist",
        help="warm_start_max_dist override (neighbor acceptance "
        "threshold, phase-invariant trace distance in (0, 1])",
    )
    show.add_argument(
        "--dispatcher",
        choices=DISPATCHER_CHOICES,
        default=None,
        help="dispatcher override ('executor' in-process, 'queue' fleet)",
    )
    show.add_argument(
        "--fleet-dir",
        default=None,
        dest="fleet_dir",
        help="fleet_dir override (fleet work-queue directory)",
    )
    show.add_argument(
        "--fleet-workers",
        type=int,
        default=None,
        dest="fleet_workers",
        help="fleet_workers override (local workers the queue "
        "dispatcher spawns)",
    )
    show.add_argument(
        "--queue-depth",
        type=int,
        default=None,
        dest="queue_depth",
        help="queue_depth override (bounded submit() admission)",
    )
    show.add_argument(
        "--fleet-lease-ttl",
        type=float,
        default=None,
        dest="fleet_lease_ttl",
        help="fleet_lease_ttl_s override (seconds before a silent lease "
        "is reclaimed)",
    )
    show.add_argument(
        "--fleet-heartbeat",
        type=float,
        default=None,
        dest="fleet_heartbeat",
        help="fleet_heartbeat_s override (lease-renewal interval; must "
        "be shorter than the lease TTL)",
    )
    show.add_argument(
        "--fleet-autoscale",
        action=argparse.BooleanOptionalAction,
        default=None,
        dest="fleet_autoscale",
        help="--fleet-autoscale / --no-fleet-autoscale override "
        "(queue-depth worker scaling)",
    )
    show.add_argument(
        "--fleet-min-workers",
        type=int,
        default=None,
        dest="fleet_min_workers",
        help="fleet_min_workers override (autoscaler floor)",
    )
    show.add_argument(
        "--fleet-max-workers",
        type=int,
        default=None,
        dest="fleet_max_workers",
        help="fleet_max_workers override (autoscaler ceiling)",
    )
    show.add_argument(
        "--server-host",
        default=None,
        dest="server_host",
        help="server_host override (HTTP frontend bind address)",
    )
    show.add_argument(
        "--server-port",
        type=int,
        default=None,
        dest="server_port",
        help="server_port override (HTTP frontend bind port)",
    )
    show.add_argument(
        "--server-max-body-mb",
        type=float,
        default=None,
        dest="server_max_body_mb",
        help="server_max_body_mb override (largest accepted request body)",
    )
    show.add_argument(
        "--server-ticket-ttl",
        type=float,
        default=None,
        dest="server_ticket_ttl",
        help="server_ticket_ttl_s override (async ticket retention)",
    )
    show.set_defaults(func=_cmd_config_show)
    return parser


def main(argv=None) -> int:
    """Parse ``argv`` (default ``sys.argv[1:]``) and run the command."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
