"""Request admission, deadlines, and the service-level API.

:class:`InfluenceService` sits between the HTTP front-end and the
scoring engine and enforces the capacity contract:

* **Bounded concurrency** — at most ``max_inflight`` requests execute at
  once; up to ``queue_limit`` more may wait for a slot.  Anything beyond
  that is rejected *immediately* with :class:`ServiceUnavailable`
  (HTTP 503 + ``Retry-After``) — saturation degrades to fast failures,
  never to unbounded queueing or a hang.
* **Per-request deadlines** — every request carries a deadline (its own
  ``deadline_ms`` or the service default).  A request that cannot get a
  slot in time, or whose work finishes past its deadline, is answered
  with :class:`DeadlineExceeded` (HTTP 504).  Work already computed still
  lands in the engine's caches, so a timed-out query warms the next one.
* **Live mutations** — ``POST /v1/graph/edges`` swaps the resident
  (graph, fingerprint) pair atomically in a single-process server.  A
  service running inside a :class:`~repro.serving.replica.ReplicaSet`
  refuses them with :class:`Conflict` (HTTP 409): each replica holds its
  own copy of the graph, so a mutation would reach only the replica that
  accepted it.
* **Provenance** — every successful response carries the served model's
  (ε, δ): inference is free, but the client always sees what the budget
  of the weights it is querying was.
* **Metrics** — per-operation counters and latency histograms
  (p50/p95 via the obs histogram reservoir), queue depth, and engine
  cache stats, all exposed by :meth:`metrics` for ``/metrics``.
"""

from __future__ import annotations

import math
import resource
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import GraphError, TrainingError
from repro.graphs.graph import Graph
from repro.obs import Observability, ensure_obs
from repro.serving.engine import ScoringEngine, graph_fingerprint
from repro.serving.registry import ModelArtifact

__all__ = [
    "BadRequest",
    "Conflict",
    "DeadlineExceeded",
    "InfluenceService",
    "ServiceConfig",
    "ServiceUnavailable",
]


class BadRequest(Exception):
    """Malformed request payload (HTTP 400)."""


class ServiceUnavailable(Exception):
    """The service is saturated (HTTP 503 + Retry-After)."""

    def __init__(self, message: str, retry_after: float) -> None:
        super().__init__(message)
        self.retry_after = float(retry_after)


class DeadlineExceeded(Exception):
    """The request missed its deadline (HTTP 504)."""


class Conflict(Exception):
    """The request conflicts with how the service is deployed (HTTP 409)."""


@dataclass(frozen=True)
class ServiceConfig:
    """Capacity and degradation policy.

    Attributes:
        max_inflight: requests executing concurrently.
        queue_limit: additional requests allowed to wait for a slot;
            arrivals beyond ``max_inflight + queue_limit`` get 503.
        default_deadline: seconds granted to requests that set none.
        max_deadline: hard ceiling on client-supplied deadlines.
        retry_after: seconds suggested in 503 responses.
        max_seeds: upper bound on ``k`` per request.
        max_simulations: upper bound on Monte-Carlo repetitions.
        max_mutation_edges: upper bound on edges per live-mutation request.
    """

    max_inflight: int = 8
    queue_limit: int = 32
    default_deadline: float = 5.0
    max_deadline: float = 60.0
    retry_after: float = 1.0
    max_seeds: int = 10_000
    max_simulations: int = 10_000
    max_mutation_edges: int = 10_000

    def __post_init__(self) -> None:
        if self.max_inflight < 1:
            raise TrainingError(f"max_inflight must be >= 1, got {self.max_inflight}")
        if self.queue_limit < 0:
            raise TrainingError(f"queue_limit must be >= 0, got {self.queue_limit}")
        if self.default_deadline <= 0 or self.max_deadline <= 0:
            raise TrainingError("deadlines must be positive")


class InfluenceService:
    """Answers influence queries for one artifact against one graph.

    Args:
        artifact: the published model to serve.
        graph: the resident evaluation graph requests are answered on; its
            fingerprint is precomputed so per-request keying is O(1).
        model_name / model_version: registry coordinates, echoed in
            responses and ``/healthz``.
        config: capacity policy.
        obs: observability bundle (a fresh enabled one when ``None`` so
            ``/metrics`` always has data).
        engine: optionally inject a prebuilt engine (tests).
    """

    def __init__(
        self,
        artifact: ModelArtifact,
        graph: Graph,
        *,
        model_name: str = "default",
        model_version: int | None = None,
        config: ServiceConfig | None = None,
        obs: Observability | None = None,
        engine: ScoringEngine | None = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.obs = obs if obs is not None else Observability()
        self.obs = ensure_obs(self.obs)
        self.artifact = artifact
        self.graph = graph
        self.fingerprint = graph_fingerprint(graph)
        self.model_name = model_name
        self.model_version = model_version
        self.engine = engine or ScoringEngine(artifact, obs=self.obs)
        self.started = time.monotonic()
        self._slots = threading.Semaphore(self.config.max_inflight)
        self._admission_lock = threading.Lock()
        #: guards the (graph, fingerprint) pair: live mutations swap both
        #: atomically, and every request snapshots both together so a
        #: response never mixes one graph's scores with another's identity.
        self._graph_lock = threading.Lock()
        self._waiting = 0
        self._inflight = 0
        #: live-mutation counter, echoed by /healthz and /metrics.
        self._mutations = 0
        #: set by a replica-set worker before it serves: its graph is one
        #: of several copies, so live mutations are refused.
        self.replica = False
        #: post-shutdown flag: reject new work during graceful drain.
        self._closed = False

    def resident(self) -> tuple[Graph, str]:
        """The current (graph, fingerprint) pair, read atomically."""
        with self._graph_lock:
            return self.graph, self.fingerprint

    # ------------------------------------------------------------------ #
    # Admission control
    # ------------------------------------------------------------------ #
    def _resolve_deadline(self, payload: dict[str, Any]) -> float:
        raw = payload.get("deadline_ms")
        if raw is None:
            return self.config.default_deadline
        if isinstance(raw, bool):
            # bool is an int subclass: `true` would float() to 1ms.
            raise BadRequest(f"deadline_ms must be a number, got {raw!r}")
        try:
            seconds = float(raw) / 1000.0
        except (TypeError, ValueError):
            raise BadRequest(f"deadline_ms must be a number, got {raw!r}") from None
        if not math.isfinite(seconds):
            # NaN slips past `<= 0` (every comparison is False) and then
            # poisons min() and the semaphore timeout; inf would disable
            # the deadline entirely.  Both are malformed input, not policy.
            raise BadRequest(f"deadline_ms must be finite, got {raw!r}")
        if seconds <= 0:
            raise BadRequest(f"deadline_ms must be positive, got {raw!r}")
        return min(seconds, self.config.max_deadline)

    def _execute(self, op: str, deadline: float, work: Callable[[], Any]) -> Any:
        """Run ``work`` under admission control and the deadline."""
        if self._closed:
            raise ServiceUnavailable("service is shutting down", self.config.retry_after)
        started = time.monotonic()
        acquired = self._slots.acquire(blocking=False)
        if not acquired:
            # All slots busy: join the bounded wait queue (or get 503).
            with self._admission_lock:
                if self._waiting >= self.config.queue_limit:
                    self.obs.counter("serve.rejected.saturated").inc()
                    raise ServiceUnavailable(
                        f"request queue is full ({self._waiting} waiting, "
                        f"{self._inflight} executing)",
                        self.config.retry_after,
                    )
                self._waiting += 1
                self.obs.gauge("serve.queue_depth").set(self._waiting)
            acquired = self._slots.acquire(timeout=deadline)
            with self._admission_lock:
                self._waiting -= 1
                self.obs.gauge("serve.queue_depth").set(self._waiting)
            if not acquired:
                self.obs.counter("serve.deadline_exceeded").inc()
                raise DeadlineExceeded(
                    f"{op}: no execution slot within {deadline:.3f}s"
                )
        with self._admission_lock:
            self._inflight += 1
            self.obs.gauge("serve.inflight").set(self._inflight)
        try:
            result = work()
        finally:
            self._slots.release()
            with self._admission_lock:
                self._inflight -= 1
                self.obs.gauge("serve.inflight").set(self._inflight)
        elapsed = time.monotonic() - started
        self.obs.metrics.histogram(f"serve.latency.{op}").observe(elapsed)
        if elapsed > deadline:
            # The work is done (and cached), but the client asked for an
            # answer by the deadline — report the miss honestly.
            self.obs.counter("serve.deadline_exceeded").inc()
            raise DeadlineExceeded(
                f"{op}: completed in {elapsed:.3f}s, past the {deadline:.3f}s deadline"
            )
        self.obs.counter(f"serve.requests.{op}").inc()
        return result

    # ------------------------------------------------------------------ #
    # Payload helpers
    # ------------------------------------------------------------------ #
    def _provenance(self) -> dict[str, Any]:
        return {
            "model": self.model_name,
            "version": self.model_version,
            "method": self.artifact.method,
            "privacy": self.artifact.privacy.to_json(),
        }

    @staticmethod
    def _int_list(payload: dict[str, Any], key: str) -> list[int]:
        raw = payload.get(key)
        if not isinstance(raw, (list, tuple)) or not raw:
            raise BadRequest(f"{key!r} must be a non-empty list of node ids")
        try:
            return [int(value) for value in raw]
        except (TypeError, ValueError):
            raise BadRequest(f"{key!r} must contain integers, got {raw!r}") from None

    # ------------------------------------------------------------------ #
    # Operations (the HTTP layer maps one endpoint to each)
    # ------------------------------------------------------------------ #
    def health(self) -> dict[str, Any]:
        """``/healthz`` — liveness plus the served model's coordinates."""
        graph, fingerprint = self.resident()
        return {
            "status": "ok" if not self._closed else "draining",
            "uptime_seconds": time.monotonic() - self.started,
            "graph_nodes": graph.num_nodes,
            "graph_edges": graph.num_edges,
            "graph_fingerprint": fingerprint,
            "graph_mutations": self._mutations,
            **self._provenance(),
        }

    def score(self, payload: dict[str, Any]) -> dict[str, Any]:
        """``/v1/score`` — scores for a node list (or every node)."""
        deadline = self._resolve_deadline(payload)
        graph, fingerprint = self.resident()
        nodes = None
        if payload.get("nodes") is not None:
            nodes = self._int_list(payload, "nodes")
            if max(nodes) >= graph.num_nodes or min(nodes) < 0:
                raise BadRequest(
                    f"node ids must be in [0, {graph.num_nodes})"
                )

        def work():
            scores = self.engine.score_nodes(graph, nodes, fingerprint=fingerprint)
            return [float(value) for value in scores]

        scores = self._execute("score", deadline, work)
        return {
            "nodes": nodes if nodes is not None else list(range(graph.num_nodes)),
            "scores": scores,
            "graph_fingerprint": fingerprint,
            **self._provenance(),
        }

    def seeds(self, payload: dict[str, Any]) -> dict[str, Any]:
        """``/v1/seeds`` — the top-``k`` seed set."""
        deadline = self._resolve_deadline(payload)
        graph, fingerprint = self.resident()
        k = payload.get("k")
        if not isinstance(k, int) or isinstance(k, bool):
            raise BadRequest(f"'k' must be an integer, got {k!r}")
        if not 1 <= k <= min(graph.num_nodes, self.config.max_seeds):
            raise BadRequest(
                f"'k' must be in [1, "
                f"{min(graph.num_nodes, self.config.max_seeds)}], got {k}"
            )
        rng = payload.get("tie_break_seed")
        if rng is not None and (isinstance(rng, bool) or not isinstance(rng, int)):
            # bool passes a bare isinstance(rng, int) check and would be
            # silently cached as seed 0/1 — reject it like any non-integer.
            raise BadRequest(f"'tie_break_seed' must be an integer, got {rng!r}")

        def work():
            return self.engine.top_k_seeds(graph, k, rng=rng, fingerprint=fingerprint)

        seeds = self._execute("seeds", deadline, work)
        return {
            "k": k,
            "seeds": seeds,
            "graph_fingerprint": fingerprint,
            **self._provenance(),
        }

    def spread(self, payload: dict[str, Any]) -> dict[str, Any]:
        """``/v1/spread`` — influence spread of a client seed set."""
        deadline = self._resolve_deadline(payload)
        graph, fingerprint = self.resident()
        seeds = self._int_list(payload, "seeds")
        if max(seeds) >= graph.num_nodes or min(seeds) < 0:
            raise BadRequest(f"seed ids must be in [0, {graph.num_nodes})")
        diffusion = payload.get("diffusion", "ic")
        if diffusion not in ("ic", "lt", "sis"):
            raise BadRequest(
                f"'diffusion' must be one of ic/lt/sis, got {diffusion!r}"
            )
        steps = payload.get("steps", 1)
        if steps is not None and (
            isinstance(steps, bool) or not isinstance(steps, int) or steps < 0
        ):
            raise BadRequest(f"'steps' must be a non-negative integer, got {steps!r}")
        simulations = payload.get("num_simulations", 100)
        if (
            isinstance(simulations, bool)
            or not isinstance(simulations, int)
            or not (1 <= simulations <= self.config.max_simulations)
        ):
            raise BadRequest(
                f"'num_simulations' must be in [1, {self.config.max_simulations}], "
                f"got {simulations!r}"
            )
        seed = payload.get("seed")
        if seed is not None and (
            isinstance(seed, bool) or not isinstance(seed, int)
        ):
            raise BadRequest(f"'seed' must be an integer, got {seed!r}")

        def work():
            kwargs = {} if seed is None else {"rng": seed}
            return self.engine.estimate_spread(
                graph,
                seeds,
                model=diffusion,
                steps=steps,
                num_simulations=simulations,
                fingerprint=fingerprint,
                **kwargs,
            )

        spread = self._execute("spread", deadline, work)
        return {
            "seeds": seeds,
            "diffusion": diffusion,
            "spread": spread,
            "graph_fingerprint": fingerprint,
            **self._provenance(),
        }

    def mutate_edges(self, payload: dict[str, Any]) -> dict[str, Any]:
        """``POST /v1/graph/edges`` — live add/remove of resident edges.

        Rebuilds the CSR incrementally (:meth:`Graph.add_edges` /
        :meth:`Graph.remove_edges`), recomputes the fingerprint, swaps the
        (graph, fingerprint) pair atomically, and invalidates exactly the
        caches keyed by the *old* fingerprint — warm entries for any other
        graph survive.  In-flight requests that snapshotted the old pair
        finish against the old graph with the old fingerprint in their
        response: a response never mixes graph states.

        Raises :class:`Conflict` in a replica-set worker: the mutation
        would diverge the replicas' graphs, and a respawned replica would
        restart from the original one.
        """
        if self.replica:
            self.obs.counter("serve.rejected.replica_mutation").inc()
            raise Conflict(
                "live graph mutations are refused under --replicas: each "
                "replica holds its own copy of the graph; serve a single "
                "process to mutate it"
            )
        deadline = self._resolve_deadline(payload)
        op = payload.get("op")
        if op not in ("add", "remove"):
            raise BadRequest(f"'op' must be 'add' or 'remove', got {op!r}")
        raw_edges = payload.get("edges")
        if not isinstance(raw_edges, (list, tuple)) or not raw_edges:
            raise BadRequest("'edges' must be a non-empty list of [u, v] pairs")
        if len(raw_edges) > self.config.max_mutation_edges:
            raise BadRequest(
                f"'edges' exceeds the per-request limit of "
                f"{self.config.max_mutation_edges}"
            )
        edges = []
        for pair in raw_edges:
            if (
                not isinstance(pair, (list, tuple))
                or len(pair) != 2
                or any(isinstance(end, bool) or not isinstance(end, int)
                       for end in pair)
            ):
                raise BadRequest(
                    f"'edges' must contain [u, v] integer pairs, got {pair!r}"
                )
            edges.append((pair[0], pair[1]))
        weights = payload.get("weights")
        if weights is not None:
            if op != "add":
                raise BadRequest("'weights' is only valid with op 'add'")
            if not isinstance(weights, (list, tuple)) or len(weights) != len(edges):
                raise BadRequest(
                    "'weights' must be a list the same length as 'edges'"
                )
            try:
                weights = [float(value) for value in weights]
            except (TypeError, ValueError):
                raise BadRequest(
                    f"'weights' must contain numbers, got {weights!r}"
                ) from None

        def work():
            with self._graph_lock:
                old_fingerprint = self.fingerprint
                try:
                    if op == "add":
                        mutated = self.graph.add_edges(edges, weights=weights)
                    else:
                        mutated = self.graph.remove_edges(edges)
                except GraphError as error:
                    raise BadRequest(str(error)) from None
                new_fingerprint = graph_fingerprint(mutated)
                self.graph = mutated
                self.fingerprint = new_fingerprint
                self._mutations += 1
            dropped = self.engine.invalidate(old_fingerprint)
            self.obs.counter(f"serve.graph.mutations.{op}").inc()
            return old_fingerprint, new_fingerprint, dropped, mutated

        old_fingerprint, new_fingerprint, dropped, mutated = self._execute(
            "mutate", deadline, work
        )
        return {
            "op": op,
            "edges": len(edges),
            "graph_nodes": mutated.num_nodes,
            "graph_edges": mutated.num_edges,
            "old_fingerprint": old_fingerprint,
            "graph_fingerprint": new_fingerprint,
            "invalidated": dropped,
            **self._provenance(),
        }

    def metrics(self) -> dict[str, Any]:
        """``/metrics`` — counters, latency quantiles, queue, caches, and
        the serving process's page faults, CPU seconds and peak RSS, read
        from ``getrusage`` on each scrape."""
        snapshot = self.obs.metrics.snapshot()
        latency = {}
        for name, histogram in self.obs.metrics.histograms().items():
            if not name.startswith("serve.latency."):
                continue
            op = name[len("serve.latency."):]
            latency[op] = {
                "count": histogram.count,
                "mean_seconds": histogram.mean,
                "p50_seconds": histogram.quantile(0.5),
                "p95_seconds": histogram.quantile(0.95),
                "max_seconds": histogram.maximum if histogram.count else 0.0,
            }
        with self._admission_lock:
            queue_depth = self._waiting
            inflight = self._inflight
        return {
            "uptime_seconds": time.monotonic() - self.started,
            "queue_depth": queue_depth,
            "inflight": inflight,
            "counters": snapshot["counters"],
            "latency": latency,
            "engine": self.engine.stats(),
            "graph_mutations": self._mutations,
            "process": _process_usage(),
            **self._provenance(),
        }

    def close(self) -> None:
        """Stop admitting work (existing requests drain normally)."""
        self._closed = True


def _process_usage() -> dict[str, Any]:
    """This process's page faults, CPU seconds and peak RSS (kB on Linux)."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "minor_faults": usage.ru_minflt,
        "major_faults": usage.ru_majflt,
        "user_seconds": usage.ru_utime,
        "system_seconds": usage.ru_stime,
        "max_rss_kb": usage.ru_maxrss,
    }
