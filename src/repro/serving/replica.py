"""Multi-process replica set: N servers, one port, self-healing.

One :class:`~repro.serving.http.InfluenceHTTPServer` is a single process
whose throughput ceiling is the GIL plus one accept loop.  This module
runs N of them as worker processes behind one public port, with the
router parent doing only supervision — no request ever passes through it,
so the data plane scales with workers while the control plane stays tiny
and dependency-free.

Two dispatch modes, picked automatically:

* **SO_REUSEPORT** (Linux, modern BSDs) — every worker binds the same
  ``(host, port)`` with ``SO_REUSEPORT`` and the *kernel* balances new
  connections across their accept queues.  Zero parent involvement per
  connection.
* **Pre-fork shared socket** (fallback) — the parent binds and listens
  once, workers inherit the listening socket across ``fork`` and all
  accept from it; the kernel wakes one accepter per connection.

Supervision: each worker heartbeats over a pipe; the monitor thread
detects a dead process (crash, OOM kill) or a stale heartbeat (hung
worker) and respawns it, subject to a total **restart budget** — a
crash-looping artifact fails the whole set loudly instead of flapping
forever.  In-flight requests on surviving replicas are untouched by a
peer's death: each worker owns its connections outright.

Workers are built by a caller-supplied zero-argument ``factory`` that
returns ``(service, registry)``; with the ``fork`` start method the
factory may close over in-memory artifacts and graphs — nothing is
pickled.  Each worker marks its service as a replica, so live graph
mutations answer 409: one worker's mutation would never reach the others,
and a respawned worker restarts from the factory's graph.
"""

from __future__ import annotations

import multiprocessing
import signal
import socket
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import TrainingError
from repro.obs import Observability, ensure_obs
from repro.serving.http import InfluenceHTTPServer

__all__ = ["ReplicaConfig", "ReplicaSet"]


@dataclass(frozen=True)
class ReplicaConfig:
    """Shape and self-healing policy of a replica set.

    Attributes:
        replicas: worker processes to run.
        host / port: public address; ``port=0`` picks a free port.
        mode: ``"auto"`` (SO_REUSEPORT when available, else shared
            socket), ``"reuseport"``, or ``"shared"``.
        heartbeat_interval: seconds between worker heartbeats.
        heartbeat_timeout: heartbeat silence after which a live process
            is declared hung and replaced.
        restart_budget: total respawns allowed across the set's lifetime;
            exceeding it marks the set degraded (dead workers stay dead).
        ready_timeout: seconds to wait for a worker to report ready.
    """

    replicas: int = 2
    host: str = "127.0.0.1"
    port: int = 0
    mode: str = "auto"
    heartbeat_interval: float = 0.25
    heartbeat_timeout: float = 5.0
    restart_budget: int = 5
    ready_timeout: float = 30.0

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise TrainingError(f"replicas must be >= 1, got {self.replicas}")
        if self.mode not in ("auto", "reuseport", "shared"):
            raise TrainingError(
                f"mode must be auto/reuseport/shared, got {self.mode!r}"
            )
        if self.heartbeat_interval <= 0 or self.heartbeat_timeout <= 0:
            raise TrainingError("heartbeat interval/timeout must be positive")
        if self.restart_budget < 0:
            raise TrainingError(
                f"restart_budget must be >= 0, got {self.restart_budget}"
            )


def _worker_main(
    factory: Callable[[], tuple[Any, Any]],
    host: str,
    port: int,
    shared_socket: socket.socket | None,
    conn,
    heartbeat_interval: float,
) -> None:
    """Worker process body: build the service, serve, heartbeat."""
    service, registry = factory()
    service.replica = True  # refuse live mutations (see module docstring)
    if shared_socket is not None:
        server = InfluenceHTTPServer(
            (host, port), service, registry, sock=shared_socket
        )
    else:
        server = InfluenceHTTPServer(
            (host, port), service, registry, reuse_port=True
        )

    def _terminate(signum, frame):  # noqa: ARG001 - signal API
        # shutdown() must not run on the serve_forever thread (it blocks
        # on the loop exiting), so hand it to a helper thread.
        threading.Thread(target=server.shutdown_gracefully, daemon=True).start()

    signal.signal(signal.SIGTERM, _terminate)

    def _heartbeat() -> None:
        while True:
            try:
                conn.send(("heartbeat", time.monotonic()))
            except (BrokenPipeError, OSError):
                return  # parent is gone; serve until killed
            time.sleep(heartbeat_interval)

    conn.send(("ready", server.server_address[1]))
    threading.Thread(target=_heartbeat, daemon=True).start()
    try:
        server.serve_forever(poll_interval=0.1)
    finally:
        server.server_close()


class _Replica:
    """Parent-side bookkeeping for one worker slot."""

    __slots__ = ("index", "process", "conn", "last_heartbeat", "restarts")

    def __init__(self, index: int) -> None:
        self.index = index
        self.process = None
        self.conn = None
        self.last_heartbeat = 0.0
        self.restarts = 0


class ReplicaSet:
    """Spawns, supervises, and respawns N HTTP server workers.

    Args:
        factory: zero-argument callable, run *inside each worker*, that
            returns ``(InfluenceService, ModelRegistry | None)``.
        config: replica count, dispatch mode, and self-healing policy.
        obs: parent-side observability; respawns and failures are counted
            under ``serve.replica.*``.
    """

    def __init__(
        self,
        factory: Callable[[], tuple[Any, Any]],
        config: ReplicaConfig | None = None,
        *,
        obs: Observability | None = None,
    ) -> None:
        self.factory = factory
        self.config = config or ReplicaConfig()
        self.obs = ensure_obs(obs)
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError as error:  # pragma: no cover - non-POSIX only
            raise TrainingError(
                "replica sets need the 'fork' start method (POSIX only)"
            ) from error
        self.mode = self._resolve_mode(self.config.mode)
        self.port: int | None = None
        self._shared_socket: socket.socket | None = None
        self._replicas: list[_Replica] = []
        self._lock = threading.Lock()
        self._monitor: threading.Thread | None = None
        self._stopping = threading.Event()
        self.total_restarts = 0
        #: set when the restart budget is exhausted with a worker down.
        self.degraded = False

    @staticmethod
    def _resolve_mode(mode: str) -> str:
        if mode == "auto":
            return "reuseport" if hasattr(socket, "SO_REUSEPORT") else "shared"
        return mode

    # ------------------------------------------------------------------ #
    @property
    def url(self) -> str:
        if self.port is None:
            raise TrainingError("replica set has not been started")
        return f"http://{self.config.host}:{self.port}"

    def start(self) -> "ReplicaSet":
        """Bind the public port, spawn every worker, await readiness."""
        if self._replicas:
            raise TrainingError("replica set already started")
        if self.mode == "shared":
            self._shared_socket = socket.create_server(
                (self.config.host, self.config.port), backlog=128, reuse_port=False
            )
            self.port = self._shared_socket.getsockname()[1]
        else:
            self.port = self._resolve_reuseport_port()
        for index in range(self.config.replicas):
            replica = _Replica(index)
            self._spawn(replica)
            self._replicas.append(replica)
        for replica in self._replicas:
            self._await_ready(replica)
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-replica-monitor", daemon=True
        )
        self._monitor.start()
        return self

    def _resolve_reuseport_port(self) -> int:
        if self.config.port:
            return self.config.port
        # Probe an ephemeral port, then hand it to the workers.  The probe
        # socket must close before the workers bind (a bound-but-idle
        # SO_REUSEPORT member would soak up connections), which leaves a
        # small window where another process could take the port — fine
        # for a dev/bench router; production deploys pass a fixed port.
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        probe.bind((self.config.host, 0))
        port = probe.getsockname()[1]
        probe.close()
        return port

    def _spawn(self, replica: _Replica) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                self.factory,
                self.config.host,
                self.port,
                self._shared_socket,
                child_conn,
                self.config.heartbeat_interval,
            ),
            name=f"repro-replica-{replica.index}",
            daemon=True,
        )
        process.start()
        child_conn.close()  # parent keeps only the read end
        replica.process = process
        replica.conn = parent_conn
        replica.last_heartbeat = time.monotonic()

    def _await_ready(self, replica: _Replica) -> None:
        deadline = time.monotonic() + self.config.ready_timeout
        while time.monotonic() < deadline:
            if replica.conn.poll(0.05):
                kind, value = replica.conn.recv()
                if kind == "ready":
                    if self.port in (None, 0):
                        self.port = int(value)
                    replica.last_heartbeat = time.monotonic()
                    return
            if not replica.process.is_alive():
                raise TrainingError(
                    f"replica {replica.index} died during startup "
                    f"(exit code {replica.process.exitcode})"
                )
        raise TrainingError(
            f"replica {replica.index} not ready within "
            f"{self.config.ready_timeout}s"
        )

    # ------------------------------------------------------------------ #
    def _monitor_loop(self) -> None:
        interval = self.config.heartbeat_interval
        while not self._stopping.wait(interval):
            for replica in self._replicas:
                self._check(replica)

    def _check(self, replica: _Replica) -> None:
        now = time.monotonic()
        try:
            while replica.conn.poll(0):
                kind, value = replica.conn.recv()
                if kind == "heartbeat":
                    replica.last_heartbeat = now
        except (EOFError, OSError):
            pass  # pipe closed — the liveness checks below decide
        crashed = not replica.process.is_alive()
        hung = (now - replica.last_heartbeat) > self.config.heartbeat_timeout
        if not crashed and not hung:
            return
        reason = "crashed" if crashed else "hung"
        self.obs.logger.error(
            "replica_down",
            index=replica.index,
            reason=reason,
            exitcode=replica.process.exitcode,
        )
        self.obs.counter(f"serve.replica.{reason}").inc()
        with self._lock:
            if self._stopping.is_set():
                return
            if self.total_restarts >= self.config.restart_budget:
                self.degraded = True
                self.obs.counter("serve.replica.budget_exhausted").inc()
                return
            self.total_restarts += 1
            replica.restarts += 1
        if not crashed:
            replica.process.terminate()
            replica.process.join(timeout=2.0)
            if replica.process.is_alive():  # pragma: no cover - stuck in C
                replica.process.kill()
                replica.process.join(timeout=2.0)
        replica.conn.close()
        self._spawn(replica)
        try:
            self._await_ready(replica)
        except TrainingError as error:
            self.obs.logger.error(
                "replica_respawn_failed", index=replica.index, error=str(error)
            )

    # ------------------------------------------------------------------ #
    def kill_replica(self, index: int) -> int:
        """Hard-kill one worker (chaos testing); returns its old pid."""
        replica = self._replicas[index]
        pid = replica.process.pid
        replica.process.kill()
        replica.process.join(timeout=5.0)
        return pid

    def stats(self) -> dict[str, Any]:
        """JSON-safe supervision state (router-level, not per-request)."""
        with self._lock:
            return {
                "mode": self.mode,
                "port": self.port,
                "degraded": self.degraded,
                "total_restarts": self.total_restarts,
                "replicas": [
                    {
                        "index": replica.index,
                        "pid": replica.process.pid if replica.process else None,
                        "alive": bool(replica.process and replica.process.is_alive()),
                        "restarts": replica.restarts,
                        "heartbeat_age_seconds": (
                            time.monotonic() - replica.last_heartbeat
                        ),
                    }
                    for replica in self._replicas
                ],
            }

    def stop(self) -> None:
        """SIGTERM every worker (graceful drain), then reap."""
        self._stopping.set()
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)
        for replica in self._replicas:
            if replica.process is not None and replica.process.is_alive():
                replica.process.terminate()
        for replica in self._replicas:
            if replica.process is None:
                continue
            replica.process.join(timeout=5.0)
            if replica.process.is_alive():  # pragma: no cover - stuck worker
                replica.process.kill()
                replica.process.join(timeout=2.0)
            if replica.conn is not None:
                replica.conn.close()
        if self._shared_socket is not None:
            self._shared_socket.close()
            self._shared_socket = None

    def __enter__(self) -> "ReplicaSet":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
