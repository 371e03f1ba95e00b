"""Command-line interface: ``python -m repro <command>``.

Small utilities for poking at the reproduction without writing a script:

* ``molecules`` — the VQE-UCCSD benchmark registry (paper Table 2).
* ``gate-table`` — the compiler's basis gate set and pulse durations
  (paper Table 1).
* ``qaoa-info`` — circuit statistics for one QAOA MAXCUT benchmark.
* ``compile`` — run one benchmark through a chosen compilation strategy
  (each ``--method`` maps to a ``repro.service`` registry key) at a random
  parametrization and report pulse duration + runtime latency.
  ``--executor`` picks how the independent per-block GRAPE searches are
  dispatched; ``--cache-dir`` persists GRAPE results on disk so a second
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
  claim leased pure tasks (seed-carrying block searches), run them, write
  completion records.  A worker opens no pulse library.
  SIGTERM drains the in-flight job before exit; ``--max-jobs`` and
  ``--idle-exit`` bound a worker's lifetime for tests and batch runs;
  ``--lease-ttl`` is the TTL its leases and heartbeat record carry, and
  ``--host-label`` simulates a distinct host on one box.
* ``fleet status`` — inspect a fleet queue directory: pending/leased job
  counts, per-lease age and staleness, worker heartbeats and
  registrations grouped by host, live workers counted by the rule the
  service dispatches by; ``--json`` emits the machine-readable snapshot.
* ``serve`` — run the HTTP compilation frontend
  (:mod:`repro.server`): ``POST /v1/compile`` over one
  ``CompilationService``, with SIGTERM draining in-flight requests
  (new compiles get 503) before exit.
* ``remote-compile`` — compile one benchmark against a running server
  over HTTP; ``--verify-local`` recompiles in-process and checks the
  returned pulses are bit-identical.
* ``library stats`` / ``library gc`` — operate on a pulse-cache
  directory's sharded pulse library: the occupancy report (shards, index
  size, evictions, cache schema version; a directory that does not exist
  yet reports an empty library and is not created; ``index_bytes``
  counts manifests and journals together) and a gc that folds every
  shard's journal into its manifest, reconciles the index with the data
  files and evicts LRU entries down to a size budget.

Every ``ServiceConfig`` field has one flag, declared once in
:data:`CONFIG_FLAGS`; ``config show`` takes them all, and ``compile``,
``compile-batch`` and ``serve`` the ones they use.  Every command prints
plain text and returns a process exit code, so the module is equally
usable from tests (``main([...])``) and the shell.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.analysis.tables import format_table
from repro.config import CACHE_SHARD_CHOICES, EXECUTOR_CHOICES, GATE_DURATIONS_NS

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


class _UsageError(Exception):
    """A bad command line: :func:`main` prints ``error: …`` and exits 2."""


def _benchmark_circuit(spec: str):
    """The transpiled circuit ``spec`` names; a bad spec is a usage error."""
    from repro.errors import ReproError
    from repro.qaoa import maxcut_problem, qaoa_circuit
    from repro.transpile import transpile
    from repro.vqe import get_molecule

    parts = spec.split(":")
    try:
        if parts[0] == "vqe" and len(parts) == 2:
            circuit = get_molecule(parts[1]).ansatz()
        elif parts[0] == "qaoa" and len(parts) == 4:
            kind, nodes, p = parts[1], int(parts[2]), int(parts[3])
            circuit = qaoa_circuit(maxcut_problem(kind, nodes), p)
        else:
            raise ValueError(
                f"bad benchmark spec {spec!r}; "
                "use vqe:<molecule> or qaoa:<kind>:<nodes>:<p>"
            )
    except (ValueError, ReproError) as exc:
        raise _UsageError(exc) from None
    return transpile(circuit)


#: CLI ``--method`` name → service strategy registry key.
METHOD_STRATEGIES = {
    "gate": "gate",
    "step": "step-function",
    "strict": "strict-partial",
    "flexible": "flexible-partial",
    "grape": "full-grape",
}


#: Each ``ServiceConfig`` field's flag: field → ``(flag, argparse
#: keywords)``.  A flag stores into its field's name (``dest``), so
#: :func:`_resolve_config` finds it; unset, the environment decides.
CONFIG_FLAGS = {
    "executor": ("--executor", {
        "choices": EXECUTOR_CHOICES,
        "help": "how per-block GRAPE searches run (REPRO_EXECUTOR, else auto)",
    }),
    "submit_workers": ("--submit-workers", {
        "type": int,
        "help": "size of the service's submit() thread pool "
        "(REPRO_SUBMIT_WORKERS, else min(8, CPUs))",
    }),
    "cache_dir": ("--cache-dir", {
        "help": "pulse library directory; a later run over it starts warm "
        "(REPRO_CACHE_DIR, else in memory only)",
    }),
    "cache_shards": ("--cache-shards", {
        "type": int,
        "choices": CACHE_SHARD_CHOICES,
        "help": "shard fan-out of a new pulse library (REPRO_CACHE_SHARDS)",
    }),
    "warm_start": ("--warm-start", {
        "action": argparse.BooleanOptionalAction,
        "help": "seed GRAPE from the nearest cached pulse or the analytic "
        "KAK decomposition (REPRO_WARM_START, else on)",
    }),
    "fleet_dir": ("--fleet-dir", {
        "help": "send block searches to the `repro worker` processes "
        "draining this queue directory (REPRO_FLEET_DIR, else in-process)",
    }),
    "queue_depth": ("--queue-depth", {
        "type": int,
        "help": "bound queued-or-running submit() requests; further calls "
        "block, and the HTTP frontend answers 429 (REPRO_QUEUE_DEPTH)",
    }),
    "server_host": ("--server-host", {
        "help": "HTTP frontend bind address (REPRO_SERVER_HOST, else "
        "127.0.0.1)",
    }),
    "server_port": ("--server-port", {
        "type": int,
        "help": "HTTP frontend bind port; 0 picks an ephemeral one "
        "(REPRO_SERVER_PORT, else 8642)",
    }),
    "server_max_body_mb": ("--server-max-body-mb", {
        "type": float,
        "help": "largest accepted request body in MiB "
        "(REPRO_SERVER_MAX_BODY_MB, else 32)",
    }),
    "server_ticket_ttl_s": ("--server-ticket-ttl", {
        "type": float,
        "help": "seconds an unfetched async ticket is kept "
        "(REPRO_SERVER_TICKET_TTL, else 3600)",
    }),
}


def _add_config_flags(parser, names, **renamed) -> None:
    """Give ``parser`` the :data:`CONFIG_FLAGS` of the fields ``names``;
    ``renamed`` maps a field to the flag this command spells it with."""
    for name in names:
        flag, options = CONFIG_FLAGS[name]
        parser.add_argument(
            renamed.get(name, flag), dest=name, default=None, **options
        )


def _resolve_config(args) -> tuple:
    """The resolved ``(ServiceConfig, sources)``: the environment first,
    then every parsed flag whose ``dest`` names a config field.

    ``sources`` maps each field to ``"default"``, ``"env"`` or ``"CLI"``.
    A combination the config rejects raises :class:`_UsageError`.
    """
    from dataclasses import fields

    from repro.errors import ReproError
    from repro.service import ServiceConfig

    names = [f.name for f in fields(ServiceConfig)]
    overrides = {
        name: getattr(args, name)
        for name in names
        if getattr(args, name, None) is not None
    }
    try:
        config, sources = ServiceConfig.from_env_with_sources(**overrides)
    except ReproError as exc:
        raise _UsageError(exc) from None
    sources.update(dict.fromkeys(overrides, "CLI"))
    return config, sources


def _cmd_compile(args) -> int:
    from repro.core import default_device_for
    from repro.pulse.grape import GrapeHyperparameters, GrapeSettings
    from repro.service import CompilationService, CompileRequest

    circuit = _benchmark_circuit(args.benchmark)

    settings = GrapeSettings(dt_ns=args.dt, target_fidelity=args.fidelity)
    hyper = GrapeHyperparameters(0.05, 0.002, max_iterations=args.iterations)
    rng = np.random.default_rng(args.seed)
    values = list(rng.uniform(-np.pi / 2, np.pi / 2, size=len(circuit.parameters)))
    config, _ = _resolve_config(args)

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
        raise _UsageError(f"--batch must be >= 1, got {args.batch}")
    if args.rounds < 1:
        raise _UsageError(f"--rounds must be >= 1, got {args.rounds}")
    circuit = _benchmark_circuit(args.benchmark)

    settings = GrapeSettings(dt_ns=args.dt, target_fidelity=args.fidelity)
    hyper = GrapeHyperparameters(0.05, 0.002, max_iterations=args.iterations)
    rng = np.random.default_rng(args.seed)
    # All rounds stream through ONE long-lived service, so round r+1 pays
    # only for blocks (θ-dependent ones, typically) it has never seen.
    totals = {"total": 0, "dispatched": 0, "deduped": 0, "reused": 0}
    round_rows = []
    config, _ = _resolve_config(args)
    with CompilationService(
        config=config,
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
    """Print the fully resolved ServiceConfig with per-field provenance,
    then the process's active preset (``REPRO_PRESET``; not a field)."""
    from repro.config import get_preset
    from repro.errors import ReproError
    from repro.service.config import DEFAULT_PRESET

    config, sources = _resolve_config(args)
    rows = [
        (name, "(unset)" if value is None else value, sources[name])
        for name, value in config.as_dict().items()
    ]
    try:
        preset = get_preset().name
    except ReproError as exc:  # an unknown REPRO_PRESET
        raise _UsageError(exc) from None
    rows.append(
        ("preset", preset, "default" if preset == DEFAULT_PRESET else "env")
    )
    print(
        format_table(
            ("field", "value", "source"),
            rows,
            title="resolved ServiceConfig (env < CLI)",
        )
    )
    return 0


#: Lookup counters of the library object the report opens.  A fresh CLI
#: process makes no lookups, so they would read 0 on every run; a live
#: service reports them in ``stats()["library"]``.
_FRESH_PROCESS_COUNTERS = frozenset({"gets", "get_hits", "puts"})


def _cmd_library_stats(args) -> int:
    from pathlib import Path

    from repro.core.cache import CACHE_SCHEMA_VERSION
    from repro.library import PulseLibrary
    from repro.service import ServiceConfig

    if not Path(args.dir).is_dir():
        # A never-created library is empty, not an error, and inspecting
        # it must not create it.  ``empty_stats`` mirrors the live
        # ``{**stats(), **sweep()}`` schema exactly.
        stats = PulseLibrary.empty_stats(args.dir)
        title = "pulse library (empty — not created yet)"
    else:
        shards = ServiceConfig.from_env().cache_shards
        library = PulseLibrary(args.dir, shards=shards)
        stats = {**library.stats(), **library.sweep()}
        title = "pulse library"
    stats["schema_version"] = CACHE_SCHEMA_VERSION
    rows = [
        (key, stats[key])
        for key in sorted(stats)
        if key not in _FRESH_PROCESS_COUNTERS
    ]
    print(format_table(("property", "value"), rows, title=title))
    return 0


def _cmd_library_gc(args) -> int:
    from pathlib import Path

    from repro.library import PulseLibrary
    from repro.service import ServiceConfig

    if not Path(args.dir).is_dir():
        print(f"error: no library directory at {args.dir}", file=sys.stderr)
        return 2
    # Without --budget-mb, gc only folds and reconciles the index.
    shards = ServiceConfig.from_env().cache_shards
    report = PulseLibrary(args.dir, shards=shards).gc(args.budget_mb)
    rows = [(key, value) for key, value in sorted(report.as_dict().items())]
    print(format_table(("property", "value"), rows, title="pulse library gc"))
    return 0


def _cmd_worker(args) -> int:
    from repro.fleet import FleetWorker

    worker = FleetWorker(
        args.fleet_dir,
        lease_ttl_s=args.lease_ttl,
        poll_s=args.poll,
        max_jobs=args.max_jobs,
        idle_exit_s=args.idle_exit,
        worker_id=args.worker_id,
        host_label=args.host_label,
    )
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
        "live_workers": 0,
        "hosts": {},
    }


def _cmd_fleet_status(args) -> int:
    import json
    from pathlib import Path

    from repro.fleet import FleetQueue

    if not Path(args.dir).is_dir():
        # Same contract as library stats: a queue directory nobody has
        # written to is an *empty queue*, and inspecting it must not
        # create it.
        status = _empty_fleet_status(args.dir)
        title = "fleet queue (empty — not created yet)"
    else:
        status = FleetQueue(args.dir).status()
        title = "fleet queue"
    if args.json:
        # The machine-readable snapshot — one JSON object, nothing else.
        print(json.dumps(status, indent=2, sort_keys=True))
        return 0
    rows = [
        ("directory", status["directory"]),
        ("pending jobs", status["pending_jobs"]),
        ("leased jobs", status["leased_jobs"]),
        ("completed results", status["completed_results"]),
        ("live workers", status["live_workers"]),
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
        rows.append(
            (
                f"worker {worker['worker']}",
                f"pid={worker['pid']} host={worker.get('host')} "
                f"state={worker['state']} "
                f"jobs_done={worker['jobs_done']} "
                f"heartbeat={worker['heartbeat_age_s']:.1f}s "
                f"ttl={worker.get('lease_ttl_s')}s "
                f"version={worker.get('version')} "
                f"{'live' if worker['live'] else 'gone'}",
            )
        )
    print(format_table(("property", "value"), rows, title=title))
    return 0


def _cmd_serve(args) -> int:
    import signal
    import threading

    from repro.server.http import CompilationServer
    from repro.service import CompilationService

    config, _ = _resolve_config(args)
    service = CompilationService(config=config)
    server = CompilationServer(
        service,
        host=config.server_host,
        port=config.server_port,
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

    circuit = _benchmark_circuit(args.benchmark)
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
        config = _resolve_config(args)[0].replace(
            fleet_dir=None, cache_dir=None
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
    _add_config_flags(compile_, ("executor", "cache_dir"))
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
        "CompilationService: later rounds reuse every block an earlier "
        "round compiled (cross-call dedup)",
    )
    batch.add_argument("--dt", type=float, default=0.5, help="GRAPE slice (ns)")
    batch.add_argument("--fidelity", type=float, default=0.95)
    batch.add_argument("--iterations", type=int, default=150)
    batch.add_argument("--block-width", type=int, default=2)
    batch.add_argument("--seed", type=int, default=0)
    _add_config_flags(
        batch, ("executor", "cache_dir", "fleet_dir", "queue_depth")
    )
    batch.set_defaults(func=_cmd_compile_batch)

    worker = sub.add_parser(
        "worker",
        help="run one fleet worker: claim queued tasks (block searches), "
        "run them, write completion records (SIGTERM drains the in-flight "
        "job)",
    )
    worker.add_argument(
        "--fleet-dir",
        required=True,
        dest="fleet_dir",
        help="fleet queue directory shared with the dispatcher",
    )
    worker.add_argument(
        "--lease-ttl",
        type=float,
        default=30.0,
        dest="lease_ttl",
        help="seconds without a heartbeat before this worker's lease may "
        "be reclaimed and its record counted gone; written into both, so "
        "every reader judges the worker by it",
    )
    worker.add_argument(
        "--poll",
        type=float,
        default=0.2,
        help="longest idle sleep between queue polls (seconds); idle "
        "polls back off from 1 ms up to it",
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
        "--host-label",
        default=None,
        dest="host_label",
        help="hostname written into leases/heartbeats instead of the real "
        "one (simulated multi-host testing; disables same-host pid probes)",
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
    _add_config_flags(
        serve,
        (
            "server_host",
            "server_port",
            "executor",
            "cache_dir",
            "fleet_dir",
            "queue_depth",
        ),
        server_host="--host",
        server_port="--port",
    )
    serve.add_argument(
        "--grace",
        type=float,
        default=30.0,
        help="seconds to wait for in-flight requests on shutdown",
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
        "gc",
        help="fold the journals, reconcile the index and evict LRU entries "
        "to a size budget",
    )
    lib_gc.add_argument("--dir", required=True, help="library directory")
    lib_gc.add_argument(
        "--budget-mb",
        type=float,
        default=None,
        help="evict least-recently-used entries until under this many MiB "
        "(default: reconcile the index only)",
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
    _add_config_flags(show, CONFIG_FLAGS)
    show.set_defaults(func=_cmd_config_show)
    return parser


def main(argv=None) -> int:
    """Parse ``argv`` (default ``sys.argv[1:]``) and run the command."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
