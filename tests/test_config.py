"""Tests for presets and the pulse-library configuration fields."""

import pytest

from repro.config import (
    GATE_DURATIONS_NS,
    available_presets,
    get_preset,
    set_preset,
)
from repro.errors import ReproError
from repro.service import ServiceConfig


class TestPresets:
    def test_available(self):
        assert set(available_presets()) == {"ci", "paper"}

    def test_paper_preset_values(self):
        paper = get_preset("paper")
        assert paper.dt_ns == 0.05
        assert paper.target_fidelity == 0.999
        assert paper.max_block_qubits == 4
        assert paper.time_search_precision_ns == 0.3

    def test_unknown_preset(self):
        with pytest.raises(ReproError):
            get_preset("turbo")

    def test_set_preset_roundtrip(self):
        original = get_preset().name
        try:
            assert set_preset("paper").name == "paper"
            assert get_preset().name == "paper"
        finally:
            set_preset(original)


class TestCacheConfig:
    """The pulse-library fields of ServiceConfig and their env parsing."""

    def test_defaults(self):
        config = ServiceConfig()
        assert config.cache_shards == 16
        assert config.cache_budget_mb is None
        assert config.prefetch is False

    def test_library_options(self):
        config = ServiceConfig(cache_shards=256, cache_budget_mb=64.0, prefetch=True)
        assert config.library_options() == {
            "shards": 256,
            "budget_mb": 64.0,
            "prefetch": True,
        }

    def test_env_parsing_tolerates_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_SHARDS", "7")
        monkeypatch.setenv("REPRO_CACHE_BUDGET_MB", "not-a-number")
        with pytest.warns(UserWarning):
            config = ServiceConfig.from_env()
        assert config.cache_shards == 16
        assert config.cache_budget_mb is None

    def test_env_parsing_accepts_valid_values(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_SHARDS", "256")
        monkeypatch.setenv("REPRO_CACHE_BUDGET_MB", "32.5")
        config = ServiceConfig.from_env()
        assert config.cache_shards == 256
        assert config.cache_budget_mb == 32.5

    @pytest.mark.parametrize(
        "raw,expected",
        [("1", True), ("true", True), ("ON", True), ("0", False), ("off", False)],
    )
    def test_prefetch_env_parsing(self, monkeypatch, raw, expected):
        monkeypatch.setenv("REPRO_PREFETCH", raw)
        assert ServiceConfig.from_env().prefetch is expected

    def test_prefetch_env_garbage_warns_and_defaults_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_PREFETCH", "maybe")
        with pytest.warns(UserWarning):
            config = ServiceConfig.from_env()
        assert config.prefetch is False


class TestGateDurations:
    def test_table1_values(self):
        assert GATE_DURATIONS_NS["rz"] == 0.4
        assert GATE_DURATIONS_NS["rx"] == 2.5
        assert GATE_DURATIONS_NS["h"] == 1.4
        assert GATE_DURATIONS_NS["cx"] == 3.8
        assert GATE_DURATIONS_NS["swap"] == 7.4

    def test_all_durations_nonnegative(self):
        assert all(v >= 0 for v in GATE_DURATIONS_NS.values())
