"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.cli import build_parser, main


def _table_rows(out: str) -> dict:
    """A two-column ``property | value`` report as ``{property: value}``."""
    rows = {}
    for line in out.splitlines():
        if "|" in line:
            name, value = line.split("|", 1)
            rows[name.strip()] = value.strip()
    return rows


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_compile_requires_benchmark(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compile"])

    def test_compile_rejects_unknown_method(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["compile", "--benchmark", "vqe:H2", "--method", "qiskit"]
            )

    def test_qaoa_defaults(self):
        args = build_parser().parse_args(["qaoa-info"])
        assert args.kind == "3regular" and args.nodes == 6 and args.p == 1

    def test_library_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["library"])

    def test_library_gc_accepts_budget(self):
        args = build_parser().parse_args(
            ["library", "gc", "--dir", "/tmp/x", "--budget-mb", "10"]
        )
        assert args.budget_mb == 10.0

    def test_compile_batch_defaults(self):
        args = build_parser().parse_args(
            ["compile-batch", "--benchmark", "vqe:H2"]
        )
        assert args.batch == 3 and args.seed == 0 and args.rounds == 1

    def test_compile_batch_rejects_nonpositive_rounds(self, capsys):
        assert (
            main(
                ["compile-batch", "--benchmark", "vqe:H2", "--rounds", "0"]
            )
            == 2
        )
        assert "--rounds must be >= 1" in capsys.readouterr().err

    def test_compile_batch_rejects_nonpositive_batch(self, capsys):
        assert (
            main(
                ["compile-batch", "--benchmark", "vqe:H2", "--batch", "0"]
            )
            == 2
        )
        assert "--batch must be >= 1" in capsys.readouterr().err


class TestCommands:
    def test_molecules_lists_table2(self, capsys):
        assert main(["molecules"]) == 0
        out = capsys.readouterr().out
        for molecule in ("H2", "LiH", "BeH2", "NaH", "H2O"):
            assert molecule in out

    def test_gate_table_lists_basis_durations(self, capsys):
        assert main(["gate-table"]) == 0
        out = capsys.readouterr().out
        assert "rz" in out and "0.4" in out
        assert "swap" in out and "7.4" in out

    def test_qaoa_info(self, capsys):
        assert main(["qaoa-info", "--kind", "3regular", "--nodes", "6", "--p", "1"]) == 0
        out = capsys.readouterr().out
        assert "optimal cut" in out
        assert "gate-based runtime" in out

    def test_compile_gate_method(self, capsys):
        assert main(["compile", "--benchmark", "vqe:H2", "--method", "gate"]) == 0
        out = capsys.readouterr().out
        assert "pulse duration" in out

    def test_compile_bad_benchmark_spec(self, capsys):
        assert main(["compile", "--benchmark", "nonsense"]) == 2
        assert "bad benchmark spec" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spec,message",
        [("vqe:Foo", "unknown molecule"), ("qaoa:cube:4:1", "unknown graph")],
    )
    def test_compile_unknown_benchmark_is_a_usage_error(
        self, capsys, spec, message
    ):
        assert main(["compile", "--benchmark", spec]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")

    def test_compile_qaoa_spec(self, capsys):
        code = main(
            ["compile", "--benchmark", "qaoa:erdosrenyi:6:1", "--method", "gate"]
        )
        assert code == 0
        assert "qaoa:erdosrenyi:6:1" in capsys.readouterr().out

    def test_library_stats_missing_dir_reports_empty(self, capsys, tmp_path):
        """A library directory that was never created is an empty library,
        not an error — and inspecting it must not create it."""
        missing = tmp_path / "never-created"
        assert main(["library", "stats", "--dir", str(missing)]) == 0
        out = capsys.readouterr().out
        assert "empty" in out and "entries" in out
        assert not missing.exists()

    def test_library_stats_missing_dir_reports_cache_schema(
        self, capsys, tmp_path
    ):
        from repro.core.cache import CACHE_SCHEMA_VERSION

        missing = tmp_path / "never-created"
        assert main(["library", "stats", "--dir", str(missing)]) == 0
        out = capsys.readouterr().out
        assert "empty" in out
        rows = _table_rows(out)
        assert rows["schema_version"] == str(CACHE_SCHEMA_VERSION)
        assert rows["entries"] == "0"
        assert not missing.exists()

    def test_library_stats_and_gc(self, capsys, tmp_path):
        from repro.library import PulseLibrary

        library = PulseLibrary(tmp_path, shards=16)
        for i in range(3):
            library.put(f"{i:040x}-0.pulse", b"x" * 1024)
        assert main(["library", "stats", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "entries" in out and "shards" in out
        assert (
            main(
                [
                    "library", "gc", "--dir", str(tmp_path),
                    "--budget-mb", str(1024 / (1024 * 1024)),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "evicted" in out
        assert library.count() == 1

    def test_library_stats_reports_a_cache_directory(self, capsys, tmp_path):
        from repro.core import PersistentPulseCache

        PersistentPulseCache(tmp_path)  # creates the library layout
        assert main(["library", "stats", "--dir", str(tmp_path)]) == 0
        rows = _table_rows(capsys.readouterr().out)
        for name in ("shards", "evictions", "migrated_entries", "schema_version"):
            assert name in rows
        # Lookup counters a fresh process never moves are not reported,
        # and neither are process-wide pool counters.
        for name in ("gets", "get_hits", "puts"):
            assert name not in rows
        assert not any("pool" in name for name in rows)

    def test_compile_step_method(self, capsys):
        assert main(["compile", "--benchmark", "vqe:H2", "--method", "step"]) == 0
        out = capsys.readouterr().out
        assert "step-function" in out

    def test_config_show_defaults(self, capsys, monkeypatch):
        for name in (
            "REPRO_EXECUTOR",
            "REPRO_CACHE_DIR",
            "REPRO_CACHE_SHARDS",
            "REPRO_CACHE_BUDGET_MB",
        ):
            monkeypatch.delenv(name, raising=False)
        assert main(["config", "show"]) == 0
        out = capsys.readouterr().out
        assert "executor" in out and "preset" in out
        assert "default" in out
        assert "env" not in out.replace("env < CLI", "")

    def test_config_show_reports_env_and_cli_sources(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_SHARDS", "256")
        monkeypatch.delenv("REPRO_SUBMIT_WORKERS", raising=False)
        argv = ["config", "show", "--executor", "serial", "--submit-workers", "2"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        lines = {
            line.split("|")[0].strip(): line
            for line in out.splitlines()
            if "|" in line
        }
        assert "env" in lines["cache_shards"]
        assert "CLI" in lines["executor"]
        assert "CLI" in lines["submit_workers"]
        assert "max_workers" not in lines
        assert "default" in lines["cache_dir"]

    def test_config_show_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["config"])

    @pytest.mark.slow
    def test_compile_batch_rounds_stream_through_one_service(self, capsys):
        code = main(
            [
                "compile-batch", "--benchmark", "qaoa:3regular:4:1",
                "--batch", "1", "--rounds", "2",
                "--iterations", "60", "--fidelity", "0.9",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "reused blocks (cross-call)" in out
        assert "round 0" in out and "round 1" in out

    @pytest.mark.slow
    def test_compile_batch_reports_dedup(self, capsys):
        code = main(
            [
                "compile-batch", "--benchmark", "qaoa:3regular:4:1",
                "--batch", "2", "--iterations", "60", "--fidelity", "0.9",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "unique blocks compiled" in out
        assert "deduplicated blocks" in out

    @pytest.mark.slow
    def test_compile_strict_method(self, capsys):
        code = main(
            [
                "compile", "--benchmark", "vqe:H2", "--method", "strict",
                "--dt", "0.5", "--fidelity", "0.9", "--iterations", "80",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        # Strict partial compilation has zero runtime GRAPE iterations.
        import re

        assert re.search(r"runtime GRAPE iterations \|\s+0\b", out)


class TestFleetCli:
    """The worker entrypoint, ``fleet status``, and the dispatcher knobs."""

    def test_worker_requires_fleet_dir(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["worker"])

    def test_worker_defaults(self):
        args = build_parser().parse_args(["worker", "--fleet-dir", "/tmp/q"])
        assert args.lease_ttl == 30.0
        assert args.poll == 0.2
        assert args.max_jobs is None
        assert args.idle_exit is None
        assert args.worker_id is None

    def test_worker_takes_no_cache_dir(self):
        """A worker opens no pulse library: the dispatching service caches
        every result itself."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["worker", "--fleet-dir", "/tmp/q", "--cache-dir", "/tmp/c"]
            )

    def test_fleet_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fleet"])

    def test_compile_batch_accepts_dispatcher_knobs(self):
        args = build_parser().parse_args(
            [
                "compile-batch", "--benchmark", "vqe:H2",
                "--dispatcher", "queue", "--fleet-dir", "/tmp/q",
                "--queue-depth", "8",
            ]
        )
        assert args.dispatcher == "queue"
        assert args.fleet_dir == "/tmp/q"
        assert args.queue_depth == 8

    def test_compile_batch_rejects_unknown_dispatcher(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                [
                    "compile-batch", "--benchmark", "vqe:H2",
                    "--dispatcher", "carrier-pigeon",
                ]
            )

    def test_fleet_status_missing_dir_reports_empty(self, capsys, tmp_path):
        """A queue directory nobody has written to is an empty queue, and
        inspecting it must not create it."""
        missing = tmp_path / "never-created"
        assert main(["fleet", "status", "--dir", str(missing)]) == 0
        out = capsys.readouterr().out
        assert "empty" in out and "pending jobs" in out
        assert not missing.exists()

    def test_fleet_status_reports_leases_and_workers(self, capsys, tmp_path):
        from repro.fleet import FleetQueue

        queue = FleetQueue(tmp_path)
        queue.enqueue("a")
        queue.enqueue("b")
        assert queue.claim("w1") is not None
        queue.write_worker_heartbeat("w1", "busy", 0)

        assert main(["fleet", "status", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        lines = {
            line.split("|")[0].strip(): line
            for line in out.splitlines()
            if "|" in line
        }
        # Pending counts every job file still queued, leased ones included.
        assert "2" in lines["pending jobs"]
        assert "1" in lines["leased jobs"]
        lease_row = next(v for k, v in lines.items() if k.startswith("lease "))
        assert "worker=w1" in lease_row and "live" in lease_row
        assert "state=busy" in lines["worker w1"]

    def test_worker_idle_exit_through_main(self, tmp_path):
        """The CLI entrypoint runs a real worker loop to clean idle exit."""
        import signal

        previous = {
            sig: signal.getsignal(sig) for sig in (signal.SIGTERM, signal.SIGINT)
        }
        try:
            code = main(
                [
                    "worker", "--fleet-dir", str(tmp_path),
                    "--poll", "0.05", "--idle-exit", "0.2",
                ]
            )
        finally:
            for sig, handler in previous.items():
                signal.signal(sig, handler)
        assert code == 0

    def test_config_show_reports_fleet_knobs(self, capsys, monkeypatch):
        for name in (
            "REPRO_DISPATCHER",
            "REPRO_FLEET_DIR",
            "REPRO_QUEUE_DEPTH",
        ):
            monkeypatch.delenv(name, raising=False)
        assert (
            main(
                [
                    "config", "show", "--dispatcher", "queue",
                    "--fleet-dir", "/tmp/q", "--queue-depth", "4",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        lines = {
            line.split("|")[0].strip(): line
            for line in out.splitlines()
            if "|" in line
        }
        for field in ("dispatcher", "fleet_dir", "queue_depth"):
            assert "CLI" in lines[field], field

    @pytest.mark.parametrize(
        "command",
        [
            ["compile-batch", "--benchmark", "qaoa:3regular:4:1"],
            ["serve"],
            ["config", "show"],
        ],
        ids=["compile-batch", "serve", "config-show"],
    )
    def test_queue_dispatcher_without_a_directory_is_a_usage_error(
        self, capsys, monkeypatch, command
    ):
        """The config rejects ``--dispatcher queue`` with neither a fleet
        nor a cache directory, so the CLI prints ``error: …`` and exits 2
        before any service or server starts."""
        for name in ("REPRO_DISPATCHER", "REPRO_FLEET_DIR", "REPRO_CACHE_DIR"):
            monkeypatch.delenv(name, raising=False)
        assert main([*command, "--dispatcher", "queue"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: dispatcher='queue' needs")
        assert captured.out == ""

    @pytest.mark.slow
    def test_compile_batch_through_fleet_dispatcher(
        self, capsys, tmp_path, fleet_workers
    ):
        fleet_workers(tmp_path / "q", 2)
        code = main(
            [
                "compile-batch", "--benchmark", "qaoa:3regular:4:1",
                "--batch", "2", "--iterations", "50", "--fidelity", "0.9",
                "--dispatcher", "queue", "--fleet-dir", str(tmp_path / "q"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "unique blocks compiled" in out


class TestServerCli:
    """The ``serve`` / ``remote-compile`` parsers and the new fleet flags."""

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host is None and args.port is None  # config decides
        assert args.grace == 30.0
        assert args.queue_depth is None

    @pytest.mark.parametrize(
        "flags",
        [
            ["--autoscale"],
            ["--min-workers", "1"],
            ["--max-workers", "3"],
            ["--fleet-workers", "1"],
        ],
        ids=["autoscale", "min-workers", "max-workers", "fleet-workers"],
    )
    def test_serve_has_no_pool_manager(self, flags):
        """The server starts no fleet workers: operators run ``python -m
        repro worker`` on the hosts sharing the queue directory."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", *flags])

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--queue-depth", "0"],
            ["compile-batch", "--benchmark", "vqe:H2", "--queue-depth", "0"],
            ["config", "show", "--submit-workers", "0"],
        ],
        ids=["serve-queue-depth", "compile-batch", "config-show"],
    )
    def test_bad_override_is_a_usage_error(self, capsys, argv):
        """A value the config rejects prints ``error: …`` and exits 2,
        before any service or server starts."""
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "must be >= " in captured.err
        assert captured.out == ""

    def test_remote_compile_requires_url_and_benchmark(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["remote-compile", "--url", "http://x"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["remote-compile", "--benchmark", "vqe:H2"]
            )

    def test_remote_compile_defaults(self):
        args = build_parser().parse_args(
            ["remote-compile", "--url", "http://h:1", "--benchmark", "vqe:H2"]
        )
        assert args.method == "grape"
        assert args.ticket is False
        assert args.verify_local is False
        assert args.timeout == 600.0

    def test_worker_announce_and_host_label_flags(self):
        args = build_parser().parse_args(
            [
                "worker", "--fleet-dir", "/tmp/q",
                "--host-label", "simhost-a", "--announce",
            ]
        )
        assert args.host_label == "simhost-a"
        assert args.announce is True

    def test_worker_heartbeat_follows_the_lease_ttl(self, tmp_path):
        """The renewal interval is always ``lease_ttl / 3``."""
        from repro.fleet import FleetWorker

        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["worker", "--fleet-dir", "/tmp/q", "--heartbeat", "2.5"]
            )
        assert FleetWorker(tmp_path, lease_ttl_s=9.0).heartbeat_s == 3.0

    def test_fleet_status_json_flag(self):
        args = build_parser().parse_args(
            ["fleet", "status", "--dir", "/tmp/q", "--json"]
        )
        assert args.json is True

    def test_config_show_reports_server_knobs(self, capsys, monkeypatch):
        for name in (
            "REPRO_FLEET_LEASE_TTL", "REPRO_SERVER_HOST",
            "REPRO_SERVER_PORT", "REPRO_SERVER_MAX_BODY_MB",
            "REPRO_SERVER_TICKET_TTL",
        ):
            monkeypatch.delenv(name, raising=False)
        assert (
            main(
                [
                    "config", "show",
                    "--fleet-lease-ttl", "20",
                    "--server-host", "0.0.0.0", "--server-port", "9001",
                    "--server-max-body-mb", "8",
                    "--server-ticket-ttl", "300",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        lines = {
            line.split("|")[0].strip(): line
            for line in out.splitlines()
            if "|" in line
        }
        for field in (
            "fleet_lease_ttl_s", "server_host",
            "server_port", "server_max_body_mb", "server_ticket_ttl_s",
        ):
            assert "CLI" in lines[field], field

    def test_config_show_rejects_a_bad_cli_value(self, capsys):
        """CLI overrides go through constructor validation, not the
        tolerant env path: a non-positive lease TTL is a hard error."""
        code = main(["config", "show", "--fleet-lease-ttl", "0"])
        assert code == 2
        assert "must be positive" in capsys.readouterr().err

    def test_config_show_lists_every_field(self, capsys):
        from dataclasses import fields

        from repro.service import ServiceConfig

        assert main(["config", "show"]) == 0
        rows = [
            line.split("|")[0].strip()
            for line in capsys.readouterr().out.splitlines()
            if "|" in line
        ]
        names = [f.name for f in fields(ServiceConfig)]
        assert len(names) == 15
        # The header row, one row per field, then the active preset.
        assert rows[1:] == [*names, "preset"]

    def test_config_show_reports_the_active_preset(self):
        """``REPRO_PRESET`` is read at import, so it takes a fresh
        process to change it."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, REPRO_PRESET="paper", PYTHONPATH=str(src))
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "config", "show"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        [row] = [
            line for line in completed.stdout.splitlines()
            if line.split("|")[0].strip() == "preset"
        ]
        assert [cell.strip() for cell in row.split("|")] == [
            "preset", "paper", "env"
        ]


class TestEnvFrontDoors:
    """The CLI is a front door: it reads ``REPRO_*`` through
    ``ServiceConfig.from_env()`` and passes the values down."""

    def test_library_gc_defaults_to_env_budget(self, capsys, tmp_path, monkeypatch):
        from repro.library import PulseLibrary

        library = PulseLibrary(tmp_path)
        for i in range(3):
            library.put(f"{i:040x}-0.pulse", b"x" * 1024)
        monkeypatch.setenv("REPRO_CACHE_BUDGET_MB", str(1024 / (1024 * 1024)))
        assert main(["library", "gc", "--dir", str(tmp_path)]) == 0
        lines = {
            line.split("|")[0].strip(): line.split("|")[1].strip()
            for line in capsys.readouterr().out.splitlines()
            if "|" in line
        }
        assert lines["budget_bytes"] == "1024"
        assert lines["evicted"] == "2"
        assert library.count() == 1

    def test_compile_creates_library_with_env_shards(self, tmp_path, monkeypatch):
        import json

        monkeypatch.setenv("REPRO_CACHE_SHARDS", "256")
        cache_dir = tmp_path / "cache"
        code = main(
            [
                "compile", "--benchmark", "qaoa:erdosrenyi:6:1",
                "--method", "gate", "--cache-dir", str(cache_dir),
            ]
        )
        assert code == 0
        descriptor = json.loads((cache_dir / "library.json").read_text())
        assert descriptor["shards"] == 256
