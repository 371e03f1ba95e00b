"""The network layer: an HTTP frontend over the compilation service.

Clients on other machines compile through ``POST /v1/compile`` instead
of importing :mod:`repro`:

* :mod:`repro.server.wire` — fingerprint-stable JSON codecs for
  circuits, requests, and results (exact-float round-trips, so a remote
  request hits the same cache slots as an in-process one).
* :mod:`repro.server.http` — :class:`CompilationServer`, a stdlib
  ``ThreadingHTTPServer`` frontend with structured error mapping
  (400/404/413/429/503) and graceful drain.
* :mod:`repro.server.tickets` — :class:`TicketStore`, async-compile
  tickets behind ``GET /v1/jobs/<id>``.
* :mod:`repro.server.client` — :class:`ServerClient`, the urllib-based
  client the ``remote-compile`` CLI uses; retries are safe because
  requests are idempotent by content fingerprint.

Imports are lazy (PEP 562) to keep ``import repro`` light: the HTTP
module pulls :mod:`repro.service` (and with it numpy) only when a server
or client is actually constructed.
"""

from repro.server.wire import WIRE_VERSION, WireError

__all__ = [
    "WIRE_VERSION",
    "CompilationServer",
    "RemoteCompileError",
    "ServerClient",
    "ServerError",
    "ServerUnavailable",
    "TicketStore",
    "WireError",
    "decode_request",
    "decode_result",
    "encode_request",
    "encode_result",
]

_LAZY = {
    "CompilationServer": "repro.server.http",
    "RemoteCompileError": "repro.server.client",
    "ServerClient": "repro.server.client",
    "ServerError": "repro.server.client",
    "ServerUnavailable": "repro.server.client",
    "TicketStore": "repro.server.tickets",
    "decode_request": "repro.server.wire",
    "decode_result": "repro.server.wire",
    "encode_request": "repro.server.wire",
    "encode_result": "repro.server.wire",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.server' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__() -> list:
    return sorted(set(globals()) | set(_LAZY))
