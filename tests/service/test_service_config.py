"""Tests for the typed service configuration and its env consolidation."""

import os
import re
import warnings
from dataclasses import fields
from pathlib import Path

import pytest

from repro.errors import ReproError
from repro.service import ServiceConfig
from repro.service.config import CACHE_SHARD_CHOICES, EXECUTOR_CHOICES

REPO = Path(__file__).parent.parent.parent
SRC_MODULES = sorted((REPO / "src").rglob("*.py"))
ENV_READER = REPO / "src" / "repro" / "service" / "config.py"
#: The documents that name ``REPRO_*`` variables for readers.
ENV_DOCS = ("README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md")
ENV_NAME = re.compile(r"\bREPRO_[A-Z0-9_]*[A-Z0-9]")
#: Read by the benchmark harness only, never by the package.
BENCHMARK_ONLY_VARIABLES = {"REPRO_BENCH_FULL"}


class _RecordingEnviron(dict):
    """An empty environment that records every name looked up in it."""

    def __init__(self):
        super().__init__()
        self.read = set()

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


def _variables_read_by(monkeypatch, reader) -> set:
    environ = _RecordingEnviron()
    monkeypatch.setattr(os, "environ", environ)
    reader()
    return environ.read


class TestEnvConsolidation:
    """Acceptance criterion: every REPRO_* env read routes through
    ``ServiceConfig.from_env()`` — grep-enforced."""

    @pytest.mark.parametrize(
        "path", SRC_MODULES, ids=lambda p: str(p.relative_to(REPO))
    )
    def test_only_service_config_touches_the_environment(self, path):
        if path == ENV_READER:
            return
        source = path.read_text()
        for marker in ("os.environ", "getenv", "environb"):
            assert marker not in source, (
                f"{path.relative_to(REPO)} reads the environment directly; "
                "route REPRO_* lookups through ServiceConfig.from_env()"
            )

    def test_the_one_reader_covers_every_documented_variable(
        self, monkeypatch
    ):
        from repro.service.config import preset_from_env

        field_reads = _variables_read_by(monkeypatch, ServiceConfig.from_env)
        assert len(field_reads) == len(fields(ServiceConfig)) == 15
        preset_reads = _variables_read_by(monkeypatch, preset_from_env)
        assert preset_reads == {"REPRO_PRESET"}
        read = field_reads | preset_reads
        named_in: dict = {}
        for doc in ENV_DOCS:
            for name in ENV_NAME.findall((REPO / doc).read_text()):
                named_in.setdefault(name, set()).add(doc)
        unknown = {
            name: sorted(docs)
            for name, docs in named_in.items()
            if name not in read and name not in BENCHMARK_ONLY_VARIABLES
        }
        assert not unknown, f"docs name variables nothing reads: {unknown}"
        documented = {
            name
            for name, docs in named_in.items()
            if docs & {"README.md", "DESIGN.md"}
        }
        assert read <= documented, sorted(read - documented)


class TestImportTimePresetRead:
    """Importing the package reads ``REPRO_PRESET`` alone, so a malformed
    value of another variable warns once, from ``from_env()``."""

    def test_preset_read_ignores_other_variables(self, monkeypatch):
        from repro.service.config import preset_from_env

        monkeypatch.setenv("REPRO_QUEUE_DEPTH", "0")
        monkeypatch.setenv("REPRO_PRESET", "paper")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert preset_from_env() == "paper"
        monkeypatch.delenv("REPRO_PRESET")
        assert preset_from_env() == "ci"

    def test_from_env_warns_exactly_once(self, monkeypatch):
        monkeypatch.setenv("REPRO_QUEUE_DEPTH", "0")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ServiceConfig.from_env()
        assert [str(w.message) for w in caught] == [
            "ignoring REPRO_QUEUE_DEPTH=0 (must be >= 1)"
        ]

    def test_import_does_not_warn(self):
        import subprocess
        import sys

        env = dict(
            os.environ, REPRO_QUEUE_DEPTH="0", PYTHONPATH=str(REPO / "src")
        )
        completed = subprocess.run(
            [sys.executable, "-W", "error", "-c", "import repro.config"],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stderr == ""


class TestFromEnv:
    def test_defaults_without_env(self, monkeypatch):
        for name in (
            "REPRO_EXECUTOR",
            "REPRO_SUBMIT_WORKERS",
            "REPRO_CACHE_DIR",
            "REPRO_CACHE_SHARDS",
            "REPRO_CACHE_BUDGET_MB",
            "REPRO_GRAPE_BATCH",
            "REPRO_WARM_START",
            "REPRO_DISPATCHER",
            "REPRO_FLEET_DIR",
            "REPRO_QUEUE_DEPTH",
            "REPRO_FLEET_LEASE_TTL",
            "REPRO_SERVER_HOST",
            "REPRO_SERVER_PORT",
            "REPRO_SERVER_MAX_BODY_MB",
            "REPRO_SERVER_TICKET_TTL",
        ):
            monkeypatch.delenv(name, raising=False)
        config, sources = ServiceConfig.from_env_with_sources()
        assert config == ServiceConfig()
        assert set(sources.values()) == {"default"}

    def test_env_values_and_sources(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "serial")
        monkeypatch.setenv("REPRO_SUBMIT_WORKERS", "6")
        monkeypatch.setenv("REPRO_CACHE_DIR", "/tmp/pulses")
        monkeypatch.setenv("REPRO_CACHE_SHARDS", "256")
        monkeypatch.setenv("REPRO_CACHE_BUDGET_MB", "32.5")
        monkeypatch.setenv("REPRO_GRAPE_BATCH", "off")
        monkeypatch.setenv("REPRO_WARM_START", "no")
        monkeypatch.setenv("REPRO_DISPATCHER", "queue")
        monkeypatch.setenv("REPRO_FLEET_DIR", "/tmp/fleet")
        monkeypatch.setenv("REPRO_QUEUE_DEPTH", "16")
        monkeypatch.setenv("REPRO_FLEET_LEASE_TTL", "12.5")
        monkeypatch.setenv("REPRO_SERVER_HOST", "0.0.0.0")
        monkeypatch.setenv("REPRO_SERVER_PORT", "9001")
        monkeypatch.setenv("REPRO_SERVER_MAX_BODY_MB", "8.0")
        monkeypatch.setenv("REPRO_SERVER_TICKET_TTL", "120")
        config, sources = ServiceConfig.from_env_with_sources()
        assert config.executor == "serial"
        assert config.submit_workers == 6
        assert config.cache_dir == "/tmp/pulses"
        assert config.cache_shards == 256
        assert config.cache_budget_mb == 32.5
        assert config.grape_batch is False
        assert config.warm_start is False
        assert config.dispatcher == "queue"
        assert config.fleet_dir == "/tmp/fleet"
        assert config.queue_depth == 16
        assert config.fleet_lease_ttl_s == 12.5
        assert config.server_host == "0.0.0.0"
        assert config.server_port == 9001
        assert config.server_max_body_mb == 8.0
        assert config.server_ticket_ttl_s == 120.0
        assert set(sources.values()) == {"env"}

    def test_garbage_warns_and_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "quantum-annealer")
        monkeypatch.setenv("REPRO_SUBMIT_WORKERS", "zero")
        monkeypatch.setenv("REPRO_CACHE_SHARDS", "7")
        monkeypatch.setenv("REPRO_CACHE_BUDGET_MB", "lots")
        monkeypatch.setenv("REPRO_GRAPE_BATCH", "sometimes")
        monkeypatch.setenv("REPRO_WARM_START", "perhaps")
        monkeypatch.setenv("REPRO_SCAN_BLOCK", "none")
        monkeypatch.setenv("REPRO_DISPATCHER", "carrier-pigeon")
        monkeypatch.setenv("REPRO_QUEUE_DEPTH", "0")
        monkeypatch.setenv("REPRO_FLEET_LEASE_TTL", "-3")
        monkeypatch.setenv("REPRO_SERVER_PORT", "70000")
        monkeypatch.setenv("REPRO_SERVER_MAX_BODY_MB", "huge")
        monkeypatch.setenv("REPRO_SERVER_TICKET_TTL", "0")
        with pytest.warns(UserWarning):
            config, sources = ServiceConfig.from_env_with_sources()
        assert config == ServiceConfig()
        assert set(sources.values()) == {"default"}

    @pytest.mark.parametrize("name", ["thread-persistent", "process"])
    def test_removed_executor_warns_and_resolves_to_auto(self, monkeypatch, name):
        monkeypatch.setenv("REPRO_EXECUTOR", name)
        with pytest.warns(UserWarning, match=f"REPRO_EXECUTOR={name!r}"):
            config, sources = ServiceConfig.from_env_with_sources()
        assert config.executor == "auto"
        assert sources["executor"] == "default"


class TestValidation:
    def test_unknown_executor_rejected(self):
        with pytest.raises(ReproError):
            ServiceConfig(executor="fpga")

    @pytest.mark.parametrize(
        "name", ["thread", "process", "thread-persistent", "process-persistent"]
    )
    def test_pool_executor_names_rejected(self, name):
        with pytest.raises(ReproError, match=r"\('serial', 'auto'\)"):
            ServiceConfig(executor=name)

    def test_worker_count_is_not_a_field(self):
        with pytest.raises(TypeError):
            ServiceConfig(max_workers=2)

    def test_fleet_worker_count_is_not_a_field(self):
        """The service spawns no fleet workers; operators start them."""
        with pytest.raises(TypeError):
            ServiceConfig(fleet_workers=2)

    def test_bad_submit_worker_count_rejected(self):
        with pytest.raises(ReproError):
            ServiceConfig(submit_workers=0)

    def test_submit_workers_default_is_bounded(self):
        import os

        assert ServiceConfig().submit_workers == min(8, os.cpu_count() or 1)

    def test_bad_shards_rejected(self):
        with pytest.raises(ReproError):
            ServiceConfig(cache_shards=100)

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(ReproError):
            ServiceConfig(cache_budget_mb=0)

    def test_choices_match_config_module(self):
        from repro import config as legacy

        assert legacy.EXECUTOR_CHOICES is EXECUTOR_CHOICES
        assert legacy.CACHE_SHARD_CHOICES is CACHE_SHARD_CHOICES


class TestFleetServerValidation:
    """Constructor validation for the fleet/server knobs (CLI and direct
    construction paths — the env path is tolerant instead, see below)."""

    @pytest.mark.parametrize(
        "overrides",
        [
            {"fleet_lease_ttl_s": 0},
            {"fleet_lease_ttl_s": -1.0},
            {"server_port": -1},
            {"server_port": 65536},
            {"server_max_body_mb": 0},
            {"server_ticket_ttl_s": 0},
            {"queue_depth": 0},
        ],
        ids=[
            "zero-ttl", "negative-ttl", "negative-port", "port-too-high",
            "zero-body", "zero-ticket-ttl", "zero-queue-depth",
        ],
    )
    def test_bad_values_rejected(self, overrides):
        with pytest.raises(ReproError):
            ServiceConfig(**overrides)

    def test_queue_dispatcher_needs_a_directory(self):
        with pytest.raises(ReproError, match="needs fleet_dir"):
            ServiceConfig(dispatcher="queue")
        assert ServiceConfig(dispatcher="queue", fleet_dir="/q").fleet_dir
        assert ServiceConfig(dispatcher="queue", cache_dir="/c").cache_dir

    def test_env_dispatcher_completed_by_an_override(self, monkeypatch):
        """An override is validated together with the environment, so a
        flag can supply the directory ``REPRO_DISPATCHER=queue`` lacks."""
        monkeypatch.setenv("REPRO_DISPATCHER", "queue")
        monkeypatch.delenv("REPRO_FLEET_DIR", raising=False)
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        with pytest.raises(ReproError, match="needs fleet_dir"):
            ServiceConfig.from_env()
        config, sources = ServiceConfig.from_env_with_sources(fleet_dir="/q")
        assert (config.dispatcher, config.fleet_dir) == ("queue", "/q")
        assert sources["dispatcher"] == "env"

    def test_good_values_accepted(self):
        config = ServiceConfig(
            fleet_lease_ttl_s=10.0,
            server_port=0,
            server_max_body_mb=1.0,
            server_ticket_ttl_s=60.0,
        )
        assert config.fleet_lease_ttl_s == 10.0
        assert config.server_port == 0


class TestUtilities:
    def test_replace_revalidates(self):
        config = ServiceConfig()
        assert config.replace(executor="serial").executor == "serial"
        with pytest.raises(ReproError):
            config.replace(executor="fpga")

    def test_as_dict_field_order(self):
        keys = list(ServiceConfig().as_dict())
        assert keys == [f.name for f in fields(ServiceConfig)]
        assert keys[0] == "executor"

    def test_frozen(self):
        with pytest.raises(Exception):
            ServiceConfig().executor = "serial"


class TestCodeConfigUnderConflictingEnv:
    """A ServiceConfig built in code takes effect field by field, whatever
    the ``REPRO_*`` environment says: only ``from_env()`` reads it."""

    def test_every_field_takes_effect(self, tmp_path, monkeypatch):
        import json

        from repro.circuits.circuit import QuantumCircuit
        from repro.perf import get_perf_registry
        from repro.pipeline.scheduler import BlockScheduler
        from repro.pulse.grape.engine import GrapeHyperparameters, GrapeSettings
        from repro.service import CompilationService, CompileRequest

        env_dir = tmp_path / "env-cache"
        for name, value in {
            "REPRO_CACHE_DIR": str(env_dir),
            "REPRO_CACHE_SHARDS": "4096",
            "REPRO_CACHE_BUDGET_MB": "99",
            "REPRO_EXECUTOR": "auto",
            "REPRO_WARM_START": "1",
            "REPRO_GRAPE_BATCH": "1",
        }.items():
            monkeypatch.setenv(name, value)
        batching = []
        original_init = BlockScheduler.__init__

        def spy_init(self, *args, **kwargs):
            original_init(self, *args, **kwargs)
            batching.append(self.grape_batch)

        monkeypatch.setattr(BlockScheduler, "__init__", spy_init)

        cache_dir = tmp_path / "cache"
        config = ServiceConfig(
            cache_dir=str(cache_dir),
            cache_shards=256,
            cache_budget_mb=5.0,
            executor="serial",
            warm_start=False,
            grape_batch=False,
        )
        circuit = QuantumCircuit(2).h(0).cx(0, 1).rz(0.3, 1)
        perf = get_perf_registry()
        with CompilationService(config) as service:
            library = service.cache.library
            descriptor = json.loads((cache_dir / "library.json").read_text())
            assert descriptor["shards"] == 256
            assert library.budget_mb == 5.0
            assert service.executor.name == "serial"
            lookups = perf.counter("grape.warm_start.lookups")
            result = service.compile(
                CompileRequest(
                    circuit,
                    strategy="full-grape",
                    settings=GrapeSettings(dt_ns=0.5, target_fidelity=0.95),
                    hyperparameters=GrapeHyperparameters(
                        0.05, 0.002, max_iterations=60
                    ),
                )
            )
            assert result.compiled.runtime_iterations > 0  # a cold compile
            assert perf.counter("grape.warm_start.lookups") == lookups
        assert batching == [False]
        assert not env_dir.exists()
