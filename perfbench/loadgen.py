"""Closed-loop HTTP/1.1 client over one keep-alive connection.

Each request is written when the previous answer has arrived, so a slow
server slows the client instead of queueing requests behind it, and the
time of a request is the server's (plus the loopback round trip), not a
queue's that grows with the host's contention.
"""

from __future__ import annotations

import json
import socket
import time
from dataclasses import dataclass


@dataclass
class Request:
    """One request and, once answered, its response."""

    kind: str
    path: str
    body: dict | None
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    response: dict | None = None

    @property
    def latency(self) -> float:
        """Seconds from writing the request to the complete response."""
        return self.done - self.sent

    def encode(self) -> bytes:
        method = "GET" if self.body is None else "POST"
        payload = b"" if self.body is None else json.dumps(self.body).encode("utf-8")
        head = (
            f"{method} {self.path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(payload)}\r\n\r\n"
        )
        return head.encode("ascii") + payload


class Client:
    """Sends one request at a time on a keep-alive connection."""

    def __init__(self, port: int, timeout: float = 60.0) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = b""

    def close(self) -> None:
        self.sock.close()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _response(self) -> tuple[int, dict | None] | None:
        """The buffered response, consumed, or None while incomplete."""
        end = self.buffer.find(b"\r\n\r\n")
        if end < 0:
            return None
        head = self.buffer[:end].decode("latin-1").split("\r\n")
        length = 0
        for line in head[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        if len(self.buffer) < end + 4 + length:
            return None
        body = self.buffer[end + 4 : end + 4 + length]
        self.buffer = self.buffer[end + 4 + length :]
        return int(head[0].split()[1]), json.loads(body) if body else None

    def call(self, request: Request) -> Request:
        """Send ``request`` and wait for its answer (``socket.timeout`` when
        none arrives within the connection's timeout)."""
        wire = request.encode()
        request.sent = time.perf_counter()
        self.sock.sendall(wire)
        while True:
            parsed = self._response()
            if parsed is not None:
                request.done = time.perf_counter()
                request.status, request.response = parsed
                return request
            chunk = self.sock.recv(1 << 16)
            if not chunk:
                raise ConnectionError("server closed the keep-alive connection")
            self.buffer += chunk
