"""Tests for the typed service configuration and its env consolidation."""

from pathlib import Path

import pytest

from repro.errors import ReproError
from repro.service import ServiceConfig
from repro.service.config import CACHE_SHARD_CHOICES, EXECUTOR_CHOICES

REPO = Path(__file__).parent.parent.parent
SRC_MODULES = sorted((REPO / "src").rglob("*.py"))
ENV_READER = REPO / "src" / "repro" / "service" / "config.py"


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

    def test_the_one_reader_covers_every_documented_variable(self):
        source = ENV_READER.read_text()
        for name in (
            "REPRO_EXECUTOR",
            "REPRO_MAX_WORKERS",
            "REPRO_SUBMIT_WORKERS",
            "REPRO_CACHE_DIR",
            "REPRO_CACHE_SHARDS",
            "REPRO_CACHE_BUDGET_MB",
            "REPRO_PREFETCH",
            "REPRO_PRESET",
            "REPRO_SCHEDULER_STATE",
            "REPRO_GRAPE_BATCH",
            "REPRO_GRAPE_BATCH_SIZE",
            "REPRO_WARM_START",
            "REPRO_WARM_START_MAX_DIST",
            "REPRO_DISPATCHER",
            "REPRO_FLEET_DIR",
            "REPRO_FLEET_WORKERS",
            "REPRO_QUEUE_DEPTH",
            "REPRO_FLEET_LEASE_TTL",
            "REPRO_FLEET_HEARTBEAT",
            "REPRO_FLEET_AUTOSCALE",
            "REPRO_FLEET_MIN_WORKERS",
            "REPRO_FLEET_MAX_WORKERS",
            "REPRO_SERVER_HOST",
            "REPRO_SERVER_PORT",
            "REPRO_SERVER_MAX_BODY_MB",
            "REPRO_SERVER_TICKET_TTL",
        ):
            assert name in source


class TestFromEnv:
    def test_defaults_without_env(self, monkeypatch):
        for name in (
            "REPRO_EXECUTOR",
            "REPRO_MAX_WORKERS",
            "REPRO_SUBMIT_WORKERS",
            "REPRO_CACHE_DIR",
            "REPRO_CACHE_SHARDS",
            "REPRO_CACHE_BUDGET_MB",
            "REPRO_PREFETCH",
            "REPRO_PRESET",
            "REPRO_SCHEDULER_STATE",
            "REPRO_GRAPE_BATCH",
            "REPRO_GRAPE_BATCH_SIZE",
            "REPRO_WARM_START",
            "REPRO_WARM_START_MAX_DIST",
            "REPRO_DISPATCHER",
            "REPRO_FLEET_DIR",
            "REPRO_FLEET_WORKERS",
            "REPRO_QUEUE_DEPTH",
            "REPRO_FLEET_LEASE_TTL",
            "REPRO_FLEET_HEARTBEAT",
            "REPRO_FLEET_AUTOSCALE",
            "REPRO_FLEET_MIN_WORKERS",
            "REPRO_FLEET_MAX_WORKERS",
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
        monkeypatch.setenv("REPRO_EXECUTOR", "thread-persistent")
        monkeypatch.setenv("REPRO_MAX_WORKERS", "3")
        monkeypatch.setenv("REPRO_SUBMIT_WORKERS", "6")
        monkeypatch.setenv("REPRO_CACHE_DIR", "/tmp/pulses")
        monkeypatch.setenv("REPRO_CACHE_SHARDS", "256")
        monkeypatch.setenv("REPRO_CACHE_BUDGET_MB", "32.5")
        monkeypatch.setenv("REPRO_PREFETCH", "yes")
        monkeypatch.setenv("REPRO_PRESET", "paper")
        monkeypatch.setenv("REPRO_SCHEDULER_STATE", "/tmp/state.json")
        monkeypatch.setenv("REPRO_GRAPE_BATCH", "off")
        monkeypatch.setenv("REPRO_GRAPE_BATCH_SIZE", "8")
        monkeypatch.setenv("REPRO_WARM_START", "no")
        monkeypatch.setenv("REPRO_WARM_START_MAX_DIST", "0.4")
        monkeypatch.setenv("REPRO_DISPATCHER", "queue")
        monkeypatch.setenv("REPRO_FLEET_DIR", "/tmp/fleet")
        monkeypatch.setenv("REPRO_FLEET_WORKERS", "2")
        monkeypatch.setenv("REPRO_QUEUE_DEPTH", "16")
        monkeypatch.setenv("REPRO_FLEET_LEASE_TTL", "12.5")
        monkeypatch.setenv("REPRO_FLEET_HEARTBEAT", "2.5")
        monkeypatch.setenv("REPRO_FLEET_AUTOSCALE", "yes")
        monkeypatch.setenv("REPRO_FLEET_MIN_WORKERS", "1")
        monkeypatch.setenv("REPRO_FLEET_MAX_WORKERS", "6")
        monkeypatch.setenv("REPRO_SERVER_HOST", "0.0.0.0")
        monkeypatch.setenv("REPRO_SERVER_PORT", "9001")
        monkeypatch.setenv("REPRO_SERVER_MAX_BODY_MB", "8.0")
        monkeypatch.setenv("REPRO_SERVER_TICKET_TTL", "120")
        config, sources = ServiceConfig.from_env_with_sources()
        assert config.executor == "thread-persistent"
        assert config.max_workers == 3
        assert config.submit_workers == 6
        assert config.cache_dir == "/tmp/pulses"
        assert config.cache_shards == 256
        assert config.cache_budget_mb == 32.5
        assert config.prefetch is True
        assert config.preset == "paper"
        assert config.scheduler_state_path == "/tmp/state.json"
        assert config.grape_batch is False
        assert config.grape_batch_size == 8
        assert config.warm_start is False
        assert config.warm_start_max_dist == 0.4
        assert config.dispatcher == "queue"
        assert config.fleet_dir == "/tmp/fleet"
        assert config.fleet_workers == 2
        assert config.queue_depth == 16
        assert config.fleet_lease_ttl_s == 12.5
        assert config.fleet_heartbeat_s == 2.5
        assert config.fleet_autoscale is True
        assert config.fleet_min_workers == 1
        assert config.fleet_max_workers == 6
        assert config.server_host == "0.0.0.0"
        assert config.server_port == 9001
        assert config.server_max_body_mb == 8.0
        assert config.server_ticket_ttl_s == 120.0
        assert set(sources.values()) == {"env"}

    def test_garbage_warns_and_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "quantum-annealer")
        monkeypatch.setenv("REPRO_MAX_WORKERS", "-2")
        monkeypatch.setenv("REPRO_SUBMIT_WORKERS", "zero")
        monkeypatch.setenv("REPRO_CACHE_SHARDS", "7")
        monkeypatch.setenv("REPRO_CACHE_BUDGET_MB", "lots")
        monkeypatch.setenv("REPRO_PREFETCH", "maybe")
        monkeypatch.setenv("REPRO_GRAPE_BATCH", "sometimes")
        monkeypatch.setenv("REPRO_GRAPE_BATCH_SIZE", "0")
        monkeypatch.setenv("REPRO_WARM_START", "perhaps")
        monkeypatch.setenv("REPRO_WARM_START_MAX_DIST", "2.0")
        monkeypatch.setenv("REPRO_SCAN_BLOCK", "none")
        monkeypatch.setenv("REPRO_DISPATCHER", "carrier-pigeon")
        monkeypatch.setenv("REPRO_FLEET_WORKERS", "-1")
        monkeypatch.setenv("REPRO_QUEUE_DEPTH", "0")
        monkeypatch.setenv("REPRO_FLEET_LEASE_TTL", "-3")
        monkeypatch.setenv("REPRO_FLEET_HEARTBEAT", "soon")
        monkeypatch.setenv("REPRO_FLEET_AUTOSCALE", "sometimes")
        monkeypatch.setenv("REPRO_FLEET_MIN_WORKERS", "-1")
        monkeypatch.setenv("REPRO_FLEET_MAX_WORKERS", "0")
        monkeypatch.setenv("REPRO_SERVER_PORT", "70000")
        monkeypatch.setenv("REPRO_SERVER_MAX_BODY_MB", "huge")
        monkeypatch.setenv("REPRO_SERVER_TICKET_TTL", "0")
        with pytest.warns(UserWarning):
            config, sources = ServiceConfig.from_env_with_sources()
        assert config == ServiceConfig()
        assert set(sources.values()) == {"default"}


class TestValidation:
    def test_unknown_executor_rejected(self):
        with pytest.raises(ReproError):
            ServiceConfig(executor="fpga")

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ReproError):
            ServiceConfig(max_workers=0)

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

    def test_bad_grape_batch_size_rejected(self):
        with pytest.raises(ReproError):
            ServiceConfig(grape_batch_size=0)

    def test_bad_warm_start_max_dist_rejected(self):
        with pytest.raises(ReproError):
            ServiceConfig(warm_start_max_dist=0.0)
        with pytest.raises(ReproError):
            ServiceConfig(warm_start_max_dist=1.5)

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
            {"fleet_heartbeat_s": 0.0},
            {"fleet_heartbeat_s": 30.0},  # == lease TTL: every beat stale
            {"fleet_heartbeat_s": 45.0, "fleet_lease_ttl_s": 30.0},
            {"fleet_min_workers": -1},
            {"fleet_max_workers": 0},
            {"fleet_min_workers": 5, "fleet_max_workers": 2},
            {"server_port": -1},
            {"server_port": 65536},
            {"server_max_body_mb": 0},
            {"server_ticket_ttl_s": 0},
        ],
        ids=[
            "zero-ttl", "negative-ttl", "zero-heartbeat",
            "heartbeat-equals-ttl", "heartbeat-exceeds-ttl",
            "negative-min", "zero-max", "min-exceeds-max",
            "negative-port", "port-too-high", "zero-body", "zero-ticket-ttl",
        ],
    )
    def test_bad_values_rejected(self, overrides):
        with pytest.raises(ReproError):
            ServiceConfig(**overrides)

    def test_good_values_accepted(self):
        config = ServiceConfig(
            fleet_lease_ttl_s=10.0,
            fleet_heartbeat_s=2.0,
            fleet_autoscale=True,
            fleet_min_workers=1,
            fleet_max_workers=3,
            server_port=0,
            server_max_body_mb=1.0,
            server_ticket_ttl_s=60.0,
        )
        assert config.fleet_heartbeat_s == 2.0
        assert config.fleet_autoscale is True


class TestEnvCrossFieldFixups:
    """Cross-field constraints must not crash ``import repro``: the env
    reader falls back to defaults with a warning instead."""

    def test_heartbeat_not_shorter_than_ttl_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_FLEET_LEASE_TTL", "10")
        monkeypatch.setenv("REPRO_FLEET_HEARTBEAT", "60")
        with pytest.warns(UserWarning, match="REPRO_FLEET_HEARTBEAT"):
            config, sources = ServiceConfig.from_env_with_sources()
        assert config.fleet_lease_ttl_s == 10.0
        assert config.fleet_heartbeat_s is None
        assert sources["fleet_lease_ttl_s"] == "env"
        assert sources["fleet_heartbeat_s"] == "default"

    def test_min_exceeding_max_drops_both(self, monkeypatch):
        monkeypatch.setenv("REPRO_FLEET_MIN_WORKERS", "8")
        monkeypatch.setenv("REPRO_FLEET_MAX_WORKERS", "2")
        with pytest.warns(UserWarning, match="min exceeds max"):
            config, sources = ServiceConfig.from_env_with_sources()
        assert config.fleet_min_workers == 0
        assert config.fleet_max_workers == 4
        assert sources["fleet_min_workers"] == "default"
        assert sources["fleet_max_workers"] == "default"


class TestUtilities:
    def test_replace_revalidates(self):
        config = ServiceConfig()
        assert config.replace(executor="thread").executor == "thread"
        with pytest.raises(ReproError):
            config.replace(executor="fpga")

    def test_as_dict_field_order(self):
        keys = list(ServiceConfig().as_dict())
        assert keys[0] == "executor"
        assert "scheduler_state_path" in keys

    def test_frozen(self):
        with pytest.raises(Exception):
            ServiceConfig().executor = "thread"


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
            "REPRO_PREFETCH": "0",
            "REPRO_EXECUTOR": "thread",
            "REPRO_WARM_START": "1",
            "REPRO_WARM_START_MAX_DIST": "0.9",
            "REPRO_GRAPE_BATCH_SIZE": "7",
        }.items():
            monkeypatch.setenv(name, value)
        batch_sizes = []
        original_init = BlockScheduler.__init__

        def spy_init(self, *args, **kwargs):
            original_init(self, *args, **kwargs)
            batch_sizes.append(self.grape_batch_size)

        monkeypatch.setattr(BlockScheduler, "__init__", spy_init)

        cache_dir = tmp_path / "cache"
        config = ServiceConfig(
            cache_dir=str(cache_dir),
            cache_shards=256,
            cache_budget_mb=5.0,
            prefetch=True,
            executor="serial",
            warm_start=False,
            warm_start_max_dist=0.5,
            grape_batch_size=3,
        )
        circuit = QuantumCircuit(2).h(0).cx(0, 1).rz(0.3, 1)
        perf = get_perf_registry()
        with CompilationService(config) as service:
            library = service.cache.library
            descriptor = json.loads((cache_dir / "library.json").read_text())
            assert descriptor["shards"] == 256
            assert library.budget_mb == 5.0
            assert library.prefetch_enabled is True
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
        assert batch_sizes == [3]
        assert not env_dir.exists()
