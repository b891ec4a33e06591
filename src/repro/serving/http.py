"""Dependency-free threaded HTTP JSON API over an :class:`InfluenceService`.

Built on ``http.server.ThreadingHTTPServer`` — one daemon thread per
connection, no third-party framework.  Endpoints (GET paths ignore any
query string — ``/healthz?probe=1`` is ``/healthz``):

===============  ======  ====================================================
Path             Method  Meaning
===============  ======  ====================================================
/healthz         GET     liveness + served-model coordinates
/metrics         GET     counters, latency p50/p95, queue depth, cache stats
/v1/models       GET     registry listing (names, versions, privacy)
/v1/score        POST    ``{"nodes": [...]?}`` → per-node scores
/v1/seeds        POST    ``{"k": int}`` → top-k seed set
/v1/spread       POST    ``{"seeds": [...], "diffusion": "ic"?}`` → spread
/v1/graph/edges  POST    ``{"op": "add"|"remove", "edges": [[u,v],...]}``
                         → live mutation + selective cache invalidation
===============  ======  ====================================================

Error mapping: malformed payloads → 400, unknown paths → 404, a live
mutation sent to a replica-set worker → 409, missing
``Content-Length`` (or unsupported ``Transfer-Encoding``) → 411,
oversized bodies → 413, saturation → 503 with a ``Retry-After`` header,
missed deadlines → 504, anything unexpected → 500.  Every response body
is JSON.  The 411 and 413 rejections close the connection: the unread
body bytes would otherwise desynchronise HTTP/1.1 keep-alive framing.
"""

from __future__ import annotations

import io
import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from repro.serving.registry import ModelRegistry
from repro.serving.service import (
    BadRequest,
    Conflict,
    DeadlineExceeded,
    InfluenceService,
    ServiceUnavailable,
)

__all__ = [
    "InfluenceHTTPServer",
    "LengthRequired",
    "PayloadTooLarge",
    "make_server",
    "MAX_BODY_BYTES",
]

#: Request bodies above this are rejected with 413 before being read.
MAX_BODY_BYTES = 4 * 1024 * 1024


class PayloadTooLarge(Exception):
    """Declared request body exceeds :data:`MAX_BODY_BYTES` (HTTP 413)."""


class LengthRequired(Exception):
    """Body framing the server cannot parse safely (HTTP 411).

    Raised for a POST without ``Content-Length`` and for any
    ``Transfer-Encoding`` (chunked bodies are unsupported): guessing the
    body length would leave unread bytes on a keep-alive connection, and
    the *next* request would be parsed from the middle of this one's body.
    """


class _ResponseBuffer(io.BytesIO):
    """A handler's ``wfile``: holds what a response writes until ``flush``,
    which sends it in one ``sendall``.

    Written straight to the socket, a response's headers and body went out
    as two writes, and on one CPU the client could wake between them.
    """

    def __init__(self, connection: socket.socket) -> None:
        super().__init__()
        self._connection = connection

    def flush(self) -> None:
        data = self.getvalue()
        if data:
            self.seek(0)
            self.truncate()
            self._connection.sendall(data)


class _Handler(BaseHTTPRequestHandler):
    """Routes requests to the server's service; all responses are JSON."""

    server: "InfluenceHTTPServer"
    protocol_version = "HTTP/1.1"
    #: a response is one write, but without TCP_NODELAY Nagle can still
    #: hold it while an earlier segment waits for the client's delayed
    #: ACK, a ~40ms stall per keep-alive response.
    disable_nagle_algorithm = True

    def setup(self) -> None:
        super().setup()
        self.wfile = _ResponseBuffer(self.connection)

    def handle_expect_100(self) -> bool:
        # The client waits for the interim 100 before sending its body.
        accepted = super().handle_expect_100()
        self.wfile.flush()
        return accepted

    # ------------------------------------------------------------------ #
    def _send_json(
        self, status: int, payload: dict[str, Any], headers: dict[str, str] | None = None
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)
            self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):
            # The client hung up mid-response.  Its answer is gone either
            # way; don't let the handler thread dump a traceback, just
            # drop the dead connection.
            self.close_connection = True
            self.server.service.obs.counter("serve.client_disconnects").inc()

    def _send_error(self, status: int, message: str, **headers: str) -> None:
        self.server.service.obs.counter(f"serve.responses.{status}").inc()
        self._send_json(status, {"error": message, "status": status}, headers)

    def _read_payload(self) -> dict[str, Any]:
        if self.headers.get("Transfer-Encoding"):
            # Chunked (or any transfer-coded) bodies are unsupported;
            # pretending the body is empty would desync keep-alive.
            self.close_connection = True
            raise LengthRequired(
                "Transfer-Encoding is not supported; send Content-Length"
            )
        raw_length = self.headers.get("Content-Length")
        if raw_length is None:
            self.close_connection = True
            raise LengthRequired("POST requires a Content-Length header")
        try:
            length = int(raw_length)
        except ValueError:
            self.close_connection = True
            raise BadRequest(
                f"Content-Length must be an integer, got {raw_length!r}"
            ) from None
        if length < 0:
            self.close_connection = True
            raise BadRequest(f"Content-Length must be >= 0, got {length}")
        if length > MAX_BODY_BYTES:
            # Reject before reading: the body stays unread, so the
            # connection must close (413, not the 400 the docstring
            # contract never promised).
            self.close_connection = True
            raise PayloadTooLarge(
                f"request body of {length} bytes exceeds {MAX_BODY_BYTES}"
            )
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise BadRequest(f"body is not valid JSON: {error}") from None
        if not isinstance(payload, dict):
            raise BadRequest("body must be a JSON object")
        return payload

    def _dispatch(self, fn) -> None:
        service = self.server.service
        try:
            result = fn()
        except BadRequest as error:
            self._send_error(400, str(error))
        except Conflict as error:
            self._send_error(409, str(error))
        except LengthRequired as error:
            self._send_error(411, str(error))
        except PayloadTooLarge as error:
            self._send_error(413, str(error))
        except ServiceUnavailable as error:
            self._send_error(
                503, str(error), **{"Retry-After": f"{error.retry_after:.0f}"}
            )
        except DeadlineExceeded as error:
            self._send_error(504, str(error))
        except Exception as error:  # pragma: no cover - defensive catch-all
            service.obs.logger.error("request_failed", path=self.path, error=str(error))
            self._send_error(500, f"internal error: {error}")
        else:
            service.obs.counter("serve.responses.200").inc()
            self._send_json(200, result)

    @property
    def _route_path(self) -> str:
        """Request path with any query string split off for routing."""
        return self.path.split("?", 1)[0]

    # ------------------------------------------------------------------ #
    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        service = self.server.service
        path = self._route_path
        if path == "/healthz":
            self._dispatch(service.health)
        elif path == "/metrics":
            self._dispatch(service.metrics)
        elif path == "/v1/models":
            self._dispatch(self.server.describe_models)
        else:
            self._send_error(404, f"unknown path {self.path!r}")

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        service = self.server.service
        routes = {
            "/v1/score": service.score,
            "/v1/seeds": service.seeds,
            "/v1/spread": service.spread,
            "/v1/graph/edges": service.mutate_edges,
        }
        handler = routes.get(self._route_path)
        if handler is None:
            self._send_error(404, f"unknown path {self.path!r}")
            return
        self._dispatch(lambda: handler(self._read_payload()))

    def log_message(self, format: str, *args: Any) -> None:
        # Route access logs through the structured logger (silent unless
        # the operator enabled logging) instead of raw stderr.
        self.server.service.obs.logger.debug(
            "http_access", client=self.client_address[0], line=format % args
        )


class InfluenceHTTPServer(ThreadingHTTPServer):
    """Threaded server bound to one service (and optionally a registry)."""

    daemon_threads = True
    allow_reuse_address = True
    # The default accept backlog (5) RSTs connections under a modest burst
    # — a silent drop with no HTTP status.  Degradation must happen at the
    # service layer (503 + Retry-After), so accept generously and let
    # admission control do the rejecting.
    request_queue_size = 128

    def __init__(
        self,
        address: tuple[str, int],
        service: InfluenceService,
        registry: ModelRegistry | None = None,
        *,
        sock: socket.socket | None = None,
        reuse_port: bool = False,
    ) -> None:
        """Bind to ``address``, or adopt an already-listening ``sock``.

        ``sock`` is the pre-fork replica mode: the router parent binds and
        listens once, every worker adopts the shared socket and accepts
        from it.  ``reuse_port`` is the SO_REUSEPORT mode: every worker
        binds the same port itself and the kernel balances accepts.
        """
        self._adopted_socket = sock
        self._reuse_port = reuse_port
        super().__init__(address, _Handler)
        self.service = service
        self.registry = registry

    def server_bind(self) -> None:
        if self._adopted_socket is not None:
            self.socket.close()  # the throwaway socket TCPServer made
            self.socket = self._adopted_socket
            self.server_address = self.socket.getsockname()
            return
        if self._reuse_port:
            if not hasattr(socket, "SO_REUSEPORT"):
                raise OSError("SO_REUSEPORT is not available on this platform")
            self.socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        super().server_bind()

    def server_activate(self) -> None:
        if self._adopted_socket is not None:
            return  # the adopted socket is already listening
        super().server_activate()

    def describe_models(self) -> dict[str, Any]:
        """``/v1/models`` — the registry listing plus the active model."""
        active = {
            "model": self.service.model_name,
            "version": self.service.model_version,
        }
        if self.registry is None:
            return {"active": active, "models": {}}
        return {"active": active, "models": self.registry.describe()}

    def shutdown_gracefully(self) -> None:
        """Stop admitting work, then stop the accept loop."""
        self.service.close()
        self.shutdown()


def make_server(
    service: InfluenceService,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    registry: ModelRegistry | None = None,
) -> InfluenceHTTPServer:
    """Bind (without serving) — ``port=0`` picks a free ephemeral port.

    Call ``serve_forever()`` (blocking) or run it in a thread; tests and
    the CLI both use :func:`start_in_thread`.
    """
    return InfluenceHTTPServer((host, port), service, registry)


def start_in_thread(server: InfluenceHTTPServer) -> threading.Thread:
    """Run ``server.serve_forever()`` in a daemon thread; returns it."""
    thread = threading.Thread(
        target=server.serve_forever, name="repro-serve", daemon=True
    )
    thread.start()
    return thread
