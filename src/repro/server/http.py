"""The HTTP compilation frontend: ``repro.server.CompilationServer``.

A thin, dependency-free network layer (stdlib ``http.server``) over one
:class:`~repro.service.CompilationService`.  Threading model: the
:class:`~http.server.ThreadingHTTPServer` gives every connection its own
thread, which parses/validates the payload and then rides the service's
ordinary ``submit()`` path — so HTTP clients share the bounded admission,
executor and pulse cache with in-process callers, and
a mixed population of local and remote clients behaves as one load.

Routes::

    POST /v1/compile     body: wire-encoded CompileRequest (+ "mode")
                         mode "sync" (default) → 200 with the result
                         mode "ticket"         → 202 with a ticket id
    GET  /v1/jobs/<id>   ticket state: pending | done (+ result) | error
    GET  /v1/stats       server counters + service stats
    GET  /healthz        200 ok | 503 draining

Structured error mapping — every failure is JSON with an ``error`` field:

* 400 — malformed JSON, undecodable circuit/request, unknown strategy,
  options the strategy rejects, wire-version mismatch
* 404 — unknown route or unknown/expired ticket
* 405 — wrong method for a route
* 413 — body larger than the configured limit
* 429 — bounded admission is full (``Retry-After`` hints a backoff)
* 503 — the server is draining (SIGTERM was received)
* 500 — the compilation itself failed

Delivery semantics are *at least once*: a client that times out and
retries may compile the same request twice, but requests are idempotent
by content fingerprint (same plan-cache/pulse-library slots), so the
duplicate is a cache hit producing bit-identical pulses.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.errors import ReproError, ServiceSaturated
from repro.server.tickets import TicketStore
from repro.server.wire import (
    WIRE_VERSION,
    WireError,
    _json_safe,
    decode_request,
    encode_result,
)

#: Compile modes a ``POST /v1/compile`` body may select.
COMPILE_MODES = ("sync", "ticket")


class CompilationServer:
    """One HTTP frontend bound to one compilation service.

    Parameters
    ----------
    service:
        The :class:`~repro.service.CompilationService` every request is
        served through.  The server never closes it — lifecycle stays
        with the caller (the ``serve`` CLI closes both in order).
    host / port:
        Bind address.  Port ``0`` picks an ephemeral port (tests); the
        bound port is available as :attr:`port` either way.
    max_body_bytes:
        Reject request bodies larger than this with 413 *before* reading
        them, so an oversized payload cannot balloon server memory.
    ticket_ttl_s:
        How long a finished, unfetched async ticket is retained.
    """

    def __init__(
        self,
        service,
        host: str = "127.0.0.1",
        port: int = 0,
        max_body_bytes: int = 32 * 1024 * 1024,
        ticket_ttl_s: float = 3600.0,
    ):
        self.service = service
        self.max_body_bytes = int(max_body_bytes)
        self.tickets = TicketStore(ttl_s=ticket_ttl_s)
        self._draining = threading.Event()
        self._stats_lock = threading.Lock()
        self._inflight = 0
        self._idle = threading.Condition(self._stats_lock)
        self.requests_total = 0
        self.requests_by_route: dict = {}
        self.responses_by_code: dict = {}
        handler = _make_handler(self)
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self.host, self.port = self._httpd.server_address[:2]
        self._thread: threading.Thread | None = None

    # -- lifecycle ---------------------------------------------------------
    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def start(self) -> "CompilationServer":
        """Serve on a background thread (tests and embedded use)."""
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-http",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`close`."""
        self._httpd.serve_forever()

    def begin_drain(self) -> None:
        """Flip to draining: health checks and new compiles now get 503.

        Reads (``/v1/stats``, ``/v1/jobs``) keep working so clients can
        still fetch results for work that was admitted before the drain.
        """
        self._draining.set()

    def drain(self, grace_s: float = 30.0) -> bool:
        """Begin draining and wait for in-flight requests to finish.

        Returns ``True`` when the server went idle within ``grace_s``.
        """
        self.begin_drain()
        import time

        deadline = time.monotonic() + grace_s
        with self._idle:
            while self._inflight:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._idle.wait(remaining)
        return True

    def close(self) -> None:
        """Drain, stop accepting connections, release the socket."""
        self.begin_drain()
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None

    def __enter__(self) -> "CompilationServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- accounting --------------------------------------------------------
    def _count_request(self, route: str) -> None:
        with self._stats_lock:
            self.requests_total += 1
            self.requests_by_route[route] = (
                self.requests_by_route.get(route, 0) + 1
            )

    def _count_response(self, code: int) -> None:
        with self._stats_lock:
            key = str(code)
            self.responses_by_code[key] = self.responses_by_code.get(key, 0) + 1

    def _enter_compile(self) -> None:
        with self._stats_lock:
            self._inflight += 1

    def _exit_compile(self) -> None:
        with self._idle:
            self._inflight -= 1
            if self._inflight == 0:
                self._idle.notify_all()

    def stats(self) -> dict:
        """The ``server`` section of ``GET /v1/stats``."""
        with self._stats_lock:
            return {
                "url": self.url,
                "wire_version": WIRE_VERSION,
                "draining": self.draining,
                "inflight": self._inflight,
                "requests_total": self.requests_total,
                "requests_by_route": dict(self.requests_by_route),
                "responses_by_code": dict(self.responses_by_code),
                "max_body_bytes": self.max_body_bytes,
                "tickets": self.tickets.stats(),
            }


def _make_handler(server: CompilationServer):
    """The request-handler class bound to one :class:`CompilationServer`."""

    class Handler(BaseHTTPRequestHandler):
        # Keep-alive matters here: a variational loop makes thousands of
        # small requests, and HTTP/1.1 lets one connection carry them all.
        protocol_version = "HTTP/1.1"
        # The default handler logs every request to stderr; the server
        # keeps structured counters instead.
        def log_message(self, fmt, *args):  # noqa: D102
            pass

        # -- plumbing ------------------------------------------------------
        def _send_json(self, code: int, payload: dict, headers=()) -> None:
            body = json.dumps(payload).encode("utf-8")
            # Count before writing: a client that has read the response
            # must observe it in /v1/stats (no handler-thread race).
            server._count_response(code)
            self.send_response(code)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            for name, value in headers:
                self.send_header(name, value)
            self.end_headers()
            try:
                self.wfile.write(body)
            except (BrokenPipeError, ConnectionResetError):
                pass  # client hung up; nothing to salvage

        def _send_error_json(self, code: int, message: str, headers=()) -> None:
            self._send_json(
                code, {"error": message, "status": code}, headers=headers
            )

        def _read_body(self):
            """The request body, or ``None`` after an error response."""
            length_raw = self.headers.get("Content-Length")
            try:
                length = int(length_raw)
            except (TypeError, ValueError):
                self._send_error_json(
                    400, "missing or malformed Content-Length"
                )
                return None
            if length > server.max_body_bytes:
                # Refuse before reading: the connection cannot be reused
                # (the unread body is still in flight), so say so.
                self.close_connection = True
                self._send_error_json(
                    413,
                    f"request body of {length} bytes exceeds the "
                    f"{server.max_body_bytes}-byte limit",
                )
                return None
            return self.rfile.read(length)

        # -- routes --------------------------------------------------------
        def do_GET(self):  # noqa: N802 - BaseHTTPRequestHandler API
            path = self.path.split("?", 1)[0].rstrip("/") or "/"
            if path == "/healthz":
                server._count_request("/healthz")
                if server.draining:
                    self._send_json(503, {"status": "draining"})
                else:
                    self._send_json(200, {"status": "ok"})
                return
            if path == "/v1/stats":
                server._count_request("/v1/stats")
                self._send_json(200, _json_safe(_stats_payload()))
                return
            if path.startswith("/v1/jobs/"):
                server._count_request("/v1/jobs")
                self._handle_job(path[len("/v1/jobs/"):])
                return
            if path == "/v1/compile":
                self._send_error_json(405, "use POST for /v1/compile")
                return
            self._send_error_json(404, f"no route for {path}")

        def do_POST(self):  # noqa: N802 - BaseHTTPRequestHandler API
            path = self.path.split("?", 1)[0].rstrip("/")
            if path != "/v1/compile":
                if path in ("/healthz", "/v1/stats") or path.startswith(
                    "/v1/jobs"
                ):
                    self._send_error_json(405, f"use GET for {path}")
                else:
                    self._send_error_json(404, f"no route for {path}")
                return
            server._count_request("/v1/compile")
            if server.draining:
                self._send_error_json(
                    503, "server is draining; retry against another frontend",
                    headers=(("Retry-After", "5"),),
                )
                return
            body = self._read_body()
            if body is None:
                return
            server._enter_compile()
            try:
                self._handle_compile(body)
            finally:
                server._exit_compile()

        # -- compile -------------------------------------------------------
        def _handle_compile(self, body: bytes) -> None:
            from repro.service.registry import get_strategy

            try:
                payload = json.loads(body)
            except ValueError as exc:
                self._send_error_json(400, f"malformed JSON body: {exc}")
                return
            mode = "sync"
            if isinstance(payload, dict):
                mode = payload.get("mode", "sync")
            if mode not in COMPILE_MODES:
                self._send_error_json(
                    400, f"unknown mode {mode!r}; available: {COMPILE_MODES}"
                )
                return
            try:
                request = decode_request(payload)
                # Unknown strategies and bad options → 400 now, not a
                # failed compile later.
                strategy = get_strategy(request.strategy)
                validate = getattr(strategy, "validate", None)
                if validate is not None:
                    validate(request)
            except WireError as exc:
                self._send_error_json(400, str(exc))
                return
            except ReproError as exc:
                self._send_error_json(400, str(exc))
                return
            try:
                future = server.service.submit(request, block=False)
            except ServiceSaturated as exc:
                self._send_error_json(
                    429, str(exc), headers=(("Retry-After", "1"),)
                )
                return
            except ReproError as exc:
                # e.g. the service was closed under the server
                self._send_error_json(503, str(exc))
                return
            if mode == "ticket":
                ticket = server.tickets.issue(future)
                self._send_json(
                    202, {"ticket": ticket, "poll": f"/v1/jobs/{ticket}"}
                )
                return
            try:
                result = future.result()
            except Exception as exc:  # noqa: BLE001 - wire the failure back
                self._send_error_json(500, f"compilation failed: {exc!r}")
                return
            self._send_json(200, encode_result(result))

        def _handle_job(self, ticket: str) -> None:
            future = server.tickets.lookup(ticket)
            if future is None:
                self._send_error_json(
                    404, f"unknown (or expired) ticket {ticket!r}"
                )
                return
            if not future.done():
                self._send_json(200, {"state": "pending", "ticket": ticket})
                return
            error = future.exception()
            if error is not None:
                self._send_json(
                    200,
                    {
                        "state": "error",
                        "ticket": ticket,
                        "error": repr(error),
                    },
                )
                return
            self._send_json(
                200,
                {
                    "state": "done",
                    "ticket": ticket,
                    "result": encode_result(future.result()),
                },
            )

    def _stats_payload() -> dict:
        service_stats = server.service.stats()
        return {"server": server.stats(), "service": service_stats}

    return Handler
