"""HTTP frontend contracts: happy paths, error mapping, drain, tickets.

The satellite error-path matrix from the issue, verified against a live
server on an ephemeral port: malformed JSON → 400, oversized body → 413,
unknown strategy → 400, saturation under ``queue_depth=1`` → 429, and
draining → 503.  Plus the sync and ticket compile modes, both required to
return pulses bit-identical to an in-process ``service.compile``.
"""

from __future__ import annotations

import json
import statistics
import time

import pytest

from repro.errors import ServiceSaturated
from repro.server import (
    CompilationServer,
    RemoteCompileError,
    ServerClient,
    ServerError,
    ServerUnavailable,
)
from repro.server.wire import encode_request
from repro.pulse.grape.engine import GrapeHyperparameters, GrapeSettings
from repro.service import CompilationService, ServiceConfig

SETTINGS = GrapeSettings(dt_ns=0.5, target_fidelity=0.95)
HYPER = GrapeHyperparameters(
    learning_rate=0.05, decay_rate=0.002, max_iterations=80
)


class TestHealthAndStats:
    def test_healthz_ok(self, client):
        assert client.healthz() == {"status": "ok"}

    def test_stats_shape_and_counters(self, client, make_request):
        client.compile(make_request("gate"))
        stats = client.stats()
        assert set(stats) >= {"server", "service"}
        server_stats = stats["server"]
        assert server_stats["draining"] is False
        assert server_stats["responses_by_code"].get("200", 0) >= 1
        assert server_stats["requests_by_route"].get("/v1/compile", 0) == 1
        assert "tickets" in server_stats
        # The service section is the ordinary stats() dict, JSON-projected.
        assert "requests" in stats["service"]

    def test_unknown_route_404_and_wrong_method_405(self, client, raw_post):
        with pytest.raises(ServerError) as exc_info:
            client._roundtrip("GET", "/v1/teleport")
        assert exc_info.value.status == 404
        with pytest.raises(ServerError) as exc_info:
            client._roundtrip("GET", "/v1/compile")
        assert exc_info.value.status == 405
        status, payload = raw_post(client.url + "/healthz", b"{}")
        assert status == 405
        assert "error" in payload


class TestCompileModes:
    def test_sync_compile_bit_identical_to_inline(
        self, service, client, make_request, programs_identical
    ):
        request = make_request("strict-partial", max_block_width=2)
        remote = client.compile(request)
        inline = service.compile(request)
        assert remote.strategy == "strict-partial"
        assert remote.request is request
        assert programs_identical(
            remote.compiled.program, inline.compiled.program
        )

    def test_http_overhead_is_a_localhost_round_trip(
        self, service, client, make_request
    ):
        """Pathology gate: the same cached request through both venues, so
        the difference is transport; HTTP p50 minus in-process p50 must
        stay within 250 ms (localhost costs single-digit ms, the margin
        absorbs loaded hosts)."""
        request = make_request("gate")
        service.compile(request)  # untimed warmup
        inline_ms, http_ms = [], []
        for _ in range(30):
            for venue, samples in ((service, inline_ms), (client, http_ms)):
                start = time.perf_counter()
                venue.compile(request)
                samples.append((time.perf_counter() - start) * 1e3)
        overhead = statistics.median(http_ms) - statistics.median(inline_ms)
        assert overhead <= 250, f"HTTP overhead p50 {overhead:.0f} ms"

    def test_ticket_flow(self, client, make_request, programs_identical):
        request = make_request("gate")
        ticket = client.submit(request)
        result = client.result(ticket, request=request, timeout_s=300)
        assert result.strategy == "gate"
        # The ticket is consumed by the successful fetch.
        with pytest.raises(ServerError) as exc_info:
            client.job(ticket)
        assert exc_info.value.status == 404
        # And an outright unknown ticket is also a 404.
        with pytest.raises(ServerError) as exc_info:
            client.job("no-such-ticket")
        assert exc_info.value.status == 404


class TestErrorPaths:
    def test_malformed_json_is_400(self, client, raw_post):
        status, payload = raw_post(
            client.url + "/v1/compile", b'{"circuit": '
        )
        assert status == 400
        assert "malformed JSON" in payload["error"]

    def test_unknown_strategy_is_400(self, client, make_request):
        payload = encode_request(make_request("gate"))
        payload["strategy"] = "quantum-vibes"
        payload["mode"] = "sync"
        with pytest.raises(RemoteCompileError) as exc_info:
            client._roundtrip("POST", "/v1/compile", payload)
        assert exc_info.value.status == 400
        assert "quantum-vibes" in str(exc_info.value)

    @pytest.mark.parametrize(
        "options",
        [
            {"tuning_samples": 0},
            {"tuning_samples": -1},
            {"turbo": True},
            {"probe_executor": "serial"},
        ],
    )
    def test_rejected_options_are_400(self, client, make_request, options):
        payload = encode_request(make_request("flexible-partial", options=options))
        payload["mode"] = "sync"
        with pytest.raises(RemoteCompileError) as exc_info:
            client._roundtrip("POST", "/v1/compile", payload)
        assert exc_info.value.status == 400
        assert next(iter(options)) in str(exc_info.value)

    @pytest.mark.parametrize("strategy", ["gate", "full-grape", "strict-partial"])
    def test_non_finite_value_is_400(self, client, raw_post, make_request, strategy):
        """JSON's ``NaN`` reaches the server as a float; the request is
        refused before any compile, as a bad request."""
        payload = encode_request(make_request(strategy, max_block_width=2))
        payload["values"][1] = float("nan")
        status, body = raw_post(
            client.url + "/v1/compile", json.dumps(payload).encode()
        )
        assert status == 400
        assert "theta_1" in body["error"] and "finite" in body["error"]

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("settings", [0.5, 0.95], "settings must be an object"),
            ("settings", {"regularization": [1e-3]}, "regularization must be"),
            ("settings", {"regularization": {"turbo_weight": 1.0}}, "turbo_weight"),
            ("hyperparameters", {"optimizer": "sgd"}, "sgd"),
            ("hyperparameters", {"max_iterations": 0}, "max_iterations"),
        ],
        ids=[
            "settings-not-an-object",
            "regularization-not-an-object",
            "unknown-regularization-field",
            "unknown-optimizer",
            "zero-iterations",
        ],
    )
    def test_malformed_grape_payload_is_400(
        self, client, raw_post, make_request, field, value, message
    ):
        """A settings or hyperparameters payload the codec cannot rebuild
        is the client's error, answered before any compile."""
        payload = encode_request(make_request("gate"))
        payload[field] = value
        status, body = raw_post(
            client.url + "/v1/compile", json.dumps(payload).encode()
        )
        assert status == 400
        assert message in body["error"]

    def test_unknown_mode_is_400(self, client, make_request):
        payload = encode_request(make_request("gate"))
        payload["mode"] = "telepathy"
        with pytest.raises(RemoteCompileError, match="unknown mode"):
            client._roundtrip("POST", "/v1/compile", payload)

    def test_oversized_body_is_413_before_reading(self, service, raw_post):
        with CompilationServer(service, port=0, max_body_bytes=512).start() as srv:
            status, payload = raw_post(
                srv.url + "/v1/compile", b"x" * 4096
            )
            assert status == 413
            assert "512-byte limit" in payload["error"]
            assert srv.stats()["responses_by_code"].get("413") == 1

    def test_saturated_admission_is_429(self, make_request):
        config = ServiceConfig(
            executor="serial", queue_depth=1, warm_start=False
        )
        with CompilationService(
            config=config, settings=SETTINGS, hyperparameters=HYPER
        ) as service:
            with CompilationServer(service, port=0).start() as srv:
                client = ServerClient(srv.url, retries=0)
                # Hold the single admission slot so the HTTP submit must
                # fail-fast — deterministic, no timing games.
                assert service._admission.acquire(blocking=False)
                try:
                    with pytest.raises(ServiceSaturated, match="queue is full"):
                        client.compile(make_request("gate"))
                finally:
                    service._admission.release()
                assert srv.stats()["responses_by_code"].get("429") == 1
                # With the slot back, the same request sails through.
                result = client.compile(make_request("gate"))
                assert result.compiled is not None

    def test_draining_server_rejects_with_503(self, client, server, make_request):
        assert client.healthz() == {"status": "ok"}
        server.begin_drain()
        with pytest.raises(ServerUnavailable, match="draining"):
            client.healthz()
        with pytest.raises(ServerUnavailable, match="draining"):
            client.compile(make_request("gate"))
        # Reads still work so admitted tickets stay fetchable.
        assert client.stats()["server"]["draining"] is True

    def test_unreachable_server_raises_server_unavailable(self):
        client = ServerClient(
            "http://127.0.0.1:9", timeout_s=1, retries=1, backoff_s=0.01
        )
        with pytest.raises(ServerUnavailable, match="cannot reach"):
            client.healthz()


class TestDrainLifecycle:
    def test_drain_waits_for_inflight_then_idles(self, service):
        with CompilationServer(service, port=0).start() as srv:
            assert srv.drain(grace_s=5.0) is True
            assert srv.draining is True

    def test_ticket_remains_fetchable_after_drain(
        self, client, server, make_request
    ):
        ticket = client.submit(make_request("gate"))
        server.begin_drain()
        result = client.result(ticket, timeout_s=300)
        assert result.compiled is not None


def test_raw_body_content_length_required(client):
    import http.client

    conn = http.client.HTTPConnection(client.url[len("http://"):], timeout=30)
    try:
        conn.putrequest("POST", "/v1/compile")
        conn.putheader("Content-Type", "application/json")
        conn.endheaders()
        response = conn.getresponse()
        payload = json.loads(response.read())
        assert response.status == 400
        assert "Content-Length" in payload["error"]
    finally:
        conn.close()
