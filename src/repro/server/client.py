"""``repro.server.client`` — the thin HTTP client behind ``remote-compile``.

Built on stdlib :mod:`urllib.request`; speaks the wire format of
:mod:`repro.server.wire` and maps the server's structured error codes
back to typed exceptions:

* 429 → :class:`~repro.errors.ServiceSaturated` (back off and retry)
* 400 → :class:`RemoteCompileError` (the request itself is bad — do not
  retry)
* everything else → :class:`ServerError` with the HTTP status attached

Connection-level failures (refused, reset, timed out before any byte of
response) are retried with exponential backoff.  That is safe precisely
because compile requests are idempotent by content fingerprint: a
re-delivered request lands in the same plan-cache and pulse-library
slots, so "at least once" delivery still yields exactly-once pulses.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

from repro.errors import ReproError, ServiceSaturated
from repro.server.wire import WireError, decode_result, encode_request


class ServerError(ReproError):
    """An HTTP-level failure from the compile server."""

    def __init__(self, status: int, message: str):
        super().__init__(f"server returned {status}: {message}")
        self.status = status
        self.detail = message


class RemoteCompileError(ServerError):
    """The server rejected the request as malformed (HTTP 400)."""


class ServerUnavailable(ServerError):
    """The server is draining or gone (HTTP 503, or connect failures
    that outlasted the retry budget)."""


class ServerClient:
    """One compile-server endpoint, e.g. ``ServerClient("http://host:8642")``.

    ``timeout_s`` bounds each HTTP round-trip — for synchronous compiles
    it must cover the compilation itself, so it defaults generously.
    ``retries``/``backoff_s`` govern connection-level retry only; HTTP
    error *responses* are never retried here (the caller decides, with
    429/503 as the explicit retry-later signals).
    """

    def __init__(
        self,
        url: str,
        timeout_s: float = 600.0,
        retries: int = 3,
        backoff_s: float = 0.2,
    ):
        self.url = url.rstrip("/")
        self.timeout_s = float(timeout_s)
        self.retries = int(retries)
        self.backoff_s = float(backoff_s)

    # -- transport ---------------------------------------------------------
    def _roundtrip(self, method: str, path: str, payload=None) -> dict:
        body = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            self.url + path, data=body, method=method, headers=headers
        )
        last_error: Exception | None = None
        for attempt in range(self.retries + 1):
            try:
                with urllib.request.urlopen(
                    request, timeout=self.timeout_s
                ) as response:
                    return self._parse(response.read(), response.status)
            except urllib.error.HTTPError as exc:
                # A real HTTP response: structured server error, no retry.
                return self._parse(exc.read(), exc.code)
            except (urllib.error.URLError, ConnectionError, TimeoutError) as exc:
                last_error = exc
                if attempt < self.retries:
                    time.sleep(self.backoff_s * (2**attempt))
        raise ServerUnavailable(
            0, f"cannot reach {self.url}: {last_error}"
        ) from last_error

    @staticmethod
    def _parse(raw: bytes, status: int) -> dict:
        try:
            payload = json.loads(raw) if raw else {}
        except ValueError:
            payload = {"error": raw.decode("utf-8", "replace")[:200]}
        if 200 <= status < 300:
            if not isinstance(payload, dict):
                raise WireError(
                    f"expected a JSON object response, got {payload!r}"
                )
            return payload
        message = "unexpected error"
        if isinstance(payload, dict):
            message = str(
                payload.get("error") or payload.get("status") or message
            )
        if status == 429:
            raise ServiceSaturated(message)
        if status == 400:
            raise RemoteCompileError(status, message)
        if status == 503:
            raise ServerUnavailable(status, message)
        raise ServerError(status, message)

    # -- API ---------------------------------------------------------------
    def healthz(self) -> dict:
        """``GET /healthz``; raises :class:`ServerUnavailable` on drain."""
        return self._roundtrip("GET", "/healthz")

    def stats(self) -> dict:
        """``GET /v1/stats`` — server counters + service stats."""
        return self._roundtrip("GET", "/v1/stats")

    def compile(self, request):
        """Synchronous ``POST /v1/compile``; blocks until the server
        finishes and returns a :class:`~repro.service.CompileResult`
        carrying the caller's own ``request`` object."""
        payload = encode_request(request)
        payload["mode"] = "sync"
        return decode_result(
            self._roundtrip("POST", "/v1/compile", payload), request=request
        )

    def submit(self, request) -> str:
        """Async ``POST /v1/compile``; returns the ticket id to poll."""
        payload = encode_request(request)
        payload["mode"] = "ticket"
        response = self._roundtrip("POST", "/v1/compile", payload)
        ticket = response.get("ticket")
        if not isinstance(ticket, str):
            raise WireError(f"server returned no ticket: {response!r}")
        return ticket

    def job(self, ticket: str) -> dict:
        """One ``GET /v1/jobs/<ticket>`` poll (raw state payload)."""
        return self._roundtrip("GET", f"/v1/jobs/{ticket}")

    def result(self, ticket: str, request=None, poll_s: float = 0.2,
               timeout_s: float = 600.0):
        """Poll a ticket to completion and decode its result.

        Raises :class:`ServerError` if the remote compilation failed and
        ``TimeoutError`` if the ticket stays pending past ``timeout_s``.
        """
        deadline = time.monotonic() + timeout_s
        while True:
            state = self.job(ticket)
            if state.get("state") == "done":
                return decode_result(state["result"], request=request)
            if state.get("state") == "error":
                raise ServerError(
                    500, f"remote compilation failed: {state.get('error')}"
                )
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"ticket {ticket} still pending after {timeout_s}s"
                )
            time.sleep(poll_s)
