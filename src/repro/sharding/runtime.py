"""Shard runtime: hosts shards behind a pluggable transport.

The coordinator (``repro.sharding.coordinator``) speaks one request shape:
``request(kind, {shard_id: payload})`` → ``{shard_id: response}``.  A
:class:`ShardRuntime` maps shards onto *hosts* — plain objects that answer
requests against one shard's :class:`~repro.sharding.walker.ShardView` —
and places hosts behind one of two transports
(:mod:`repro.sharding.transport`):

* ``local`` — hosts in the coordinator process, direct calls (one worker,
  and the flat samplers' whole-graph shard);
* ``tcp``   — hosts behind ``repro shard-host`` socket servers speaking
  the checksummed zero-copy frame protocol, on this machine or others;
  with no host list, one loopback host process is spawned per worker.

Each worker owns only the shards it hosts; when a shard set was loaded
from disk, workers re-map their shard files themselves, so per-process RSS
stays bounded by the hosted shards, never the whole graph.  The live-count
snapshot (the chunk-synchronous frequency snapshot of Algorithm 3) reaches
every host the same way: once in full, then as per-chunk sparse deltas.

Determinism: requests are dispatched and collected in sorted shard order,
and every host is a pure function of (shard contents, request payload,
snapshot), so responses never depend on worker count, transport, or
scheduling.
"""

from __future__ import annotations

import time

import numpy as np

from repro.errors import SamplingError
from repro.obs import ensure_obs
from repro.sampling.parallel import resolve_workers
from repro.sharding.partition import GraphShard, ShardSet
from repro.sharding.transport import LocalTransport, TcpTransport, resolve_transport
from repro.sharding.walker import ShardView, WalkTask, advance_walk

__all__ = ["ShardRuntime"]


class _ShardHost:
    """Serves coordinator requests against one shard."""

    def __init__(self, shard: GraphShard) -> None:
        self.view = ShardView(shard)
        self.seconds = 0.0
        self.walks_advanced = 0
        self.forwards_out = 0

    # ------------------------------------------------------------------ #
    def handle(self, kind: str, payload):
        began = time.perf_counter()
        try:
            return getattr(self, f"_handle_{kind}")(payload)
        finally:
            self.seconds += time.perf_counter() - began

    def _handle_stage(self, payload):
        self.view.begin_pass(payload["params"], payload.get("availability"))
        return True

    def _handle_walks(self, payload):
        finished: list[tuple[int, list[int] | None]] = []
        forward: dict[int, list[WalkTask]] = {}
        for walk in payload:
            self.walks_advanced += 1
            status, value = advance_walk(walk, self.view)
            if status == "done":
                finished.append((walk.key, value))
            else:
                walk.forwards += 1
                self.forwards_out += 1
                forward.setdefault(value, []).append(walk)
        return {"finished": finished, "forward": forward}

    def _handle_ball_rows(self, payload):
        return self.view.ball_rows(
            payload["nodes"], payload["direction"], payload["use_projected"]
        )

    def _handle_induce(self, payload):
        use_projected = payload["use_projected"]
        return {
            request_id: self.view.induced_arcs(nodes_sorted, use_projected)
            for request_id, nodes_sorted in payload["requests"]
        }

    def _handle_in_degrees(self, payload):
        shard = self.view.shard
        return shard.owned, np.diff(shard.in_indptr)

    def _handle_project_keep(self, payload):
        """Phase C of the distributed θ-projection: build the projected
        *in* rows of owned nodes and emit out-arc fragments grouped by the
        owner shard of each kept source.

        ``payload["nodes"]`` are the owned nodes over θ and row ``i`` of
        ``payload["keep"]`` the in-row positions node ``i`` keeps, in draw
        order; every other row is kept whole."""
        shard = self.view.shard
        keep = payload["keep"]
        over = shard.to_local(payload["nodes"])
        in_indptr = shard.in_indptr
        lengths = np.diff(in_indptr)
        lengths[over] = keep.shape[1]
        kept_indptr = np.zeros(shard.num_owned + 1, dtype=np.int64)
        np.cumsum(lengths, out=kept_indptr[1:])
        total = int(kept_indptr[-1])
        # Arc index per kept slot: whole rows first, then the over-θ rows
        # overwritten with their kept positions in draw order.
        take = np.repeat(in_indptr[:-1] - kept_indptr[:-1], lengths) + np.arange(
            total, dtype=np.int64
        )
        take[(kept_indptr[over][:, None] + np.arange(keep.shape[1])).ravel()] = (
            in_indptr[over][:, None] + keep
        ).ravel()
        in_local = shard.in_local[take]
        in_weights = shard.in_weights[take]
        self._projected_in = (kept_indptr, in_local, in_weights)

        sources = shard.global_ids[in_local]
        targets = np.repeat(shard.owned, lengths)
        positions = np.arange(total, dtype=np.int64) - np.repeat(
            kept_indptr[:-1], lengths
        )
        owners = np.full(total, shard.shard_id, dtype=np.int64)
        halo = in_local >= shard.num_owned
        owners[halo] = shard.halo_owner[in_local[halo] - shard.num_owned]
        fragments: dict[int, tuple[np.ndarray, ...]] = {}
        for owner in np.unique(owners):
            mask = owners == owner
            fragments[int(owner)] = (
                sources[mask],
                targets[mask],
                positions[mask],
                in_weights[mask],
            )
        return fragments

    def _handle_project_out(self, payload):
        """Phase D: assemble the projected *out* rows from fragments and
        install the projection on the view."""
        shard = self.view.shard
        parts = payload["fragments"]
        if parts:
            sources = np.concatenate([part[0] for part in parts])
            targets = np.concatenate([part[1] for part in parts])
            positions = np.concatenate([part[2] for part in parts])
            weights = np.concatenate([part[3] for part in parts])
        else:
            sources = targets = positions = np.empty(0, dtype=np.int64)
            weights = np.empty(0, dtype=np.float64)
        # Serial project_in_degree rebuilds the graph from the edge list
        # ordered by (target ascending, kept-position ascending); the
        # stable CSR sort then leaves each out row ordered the same way.
        order = np.lexsort((positions, targets, sources))
        sources = sources[order]
        targets = targets[order]
        weights = weights[order]
        source_positions = shard.to_local(sources)
        counts = np.bincount(source_positions, minlength=shard.num_owned)
        out_indptr = np.zeros(shard.num_owned + 1, dtype=np.int64)
        np.cumsum(counts, out=out_indptr[1:])
        out_local = shard.to_local(targets)
        in_indptr, in_local, in_weights = self._projected_in
        del self._projected_in
        self.view.install_projection(
            (out_indptr, out_local, weights, in_indptr, in_local, in_weights)
        )
        return True

    def _handle_export_projection(self, payload):
        return self.view.projection

    def _handle_drop_projection(self, payload):
        self.view.install_projection(None)
        return True

    def _handle_snapshot(self, payload):
        # Own a writable copy: later chunks arrive as sparse deltas
        # applied in place (frame payloads decode as read-only views).
        self.view.snapshot = np.array(payload, dtype=np.int64)
        return True

    def _handle_snapshot_delta(self, payload):
        indices, values = payload
        self.view.snapshot[indices] = values
        return True

    def _handle_stats(self, payload):
        return {
            "seconds": self.seconds,
            "walks_advanced": self.walks_advanced,
            "forwards_out": self.forwards_out,
            "num_owned": self.view.shard.num_owned,
            "num_halo": self.view.shard.num_halo,
        }


class ShardRuntime:
    """Places shard hosts behind the configured transport."""

    def __init__(
        self,
        shard_set: ShardSet,
        *,
        workers: int = 1,
        snapshot: bool = False,
        transport: str | None = None,
        shard_hosts=None,
        timeout: float | None = None,
        obs=None,
    ) -> None:
        self.shard_set = shard_set
        self.num_shards = shard_set.num_shards
        self.workers = max(1, min(resolve_workers(workers), self.num_shards))
        self.obs = ensure_obs(obs)
        self.transport_name = resolve_transport(transport, self.workers)
        self._snapshot = snapshot
        self._shipped: np.ndarray | None = None
        self.transport = None
        try:
            if self.transport_name == "local":
                self.transport = LocalTransport(shard_set)
            else:
                kwargs = {} if timeout is None else {"timeout": timeout}
                self.transport = TcpTransport(
                    shard_set,
                    hosts=shard_hosts,
                    workers=self.workers,
                    obs=self.obs,
                    **kwargs,
                )
        except Exception:
            self.close()
            raise

    # ------------------------------------------------------------------ #
    def write_snapshot(self, counts: np.ndarray) -> None:
        """Publish the chunk's live-count snapshot to every host.

        Hosts get the full array once, then per-chunk sparse deltas —
        between chunks only the nodes of the chunk's accepted subgraphs
        change, so the delta is tiny next to the snapshot.  In-process
        hosts take the same two messages as direct calls.
        """
        if not self._snapshot:
            raise SamplingError("runtime was created without a snapshot channel")
        if self._shipped is None:
            self._shipped = np.array(counts, dtype=np.int64)
            self.broadcast("snapshot", self._shipped)
            return
        changed = np.flatnonzero(self._shipped != counts)
        if changed.size:
            values = np.asarray(counts)[changed]
            self.broadcast("snapshot_delta", (changed, values))
            self._shipped[changed] = values

    def request(self, kind: str, payload_by_shard: dict[int, object]) -> dict[int, object]:
        """Send one request per addressed shard; gather responses."""
        if not payload_by_shard:
            return {}
        return self.transport.request(kind, payload_by_shard)

    def scatter(self, kind: str, payload_by_shard: dict[int, object]) -> None:
        """Enqueue requests without waiting; drain them with :meth:`poll`."""
        self.transport.scatter(kind, payload_by_shard)

    def poll(self, block: bool = True) -> list[tuple[int, object]]:
        """Collect ``(shard_id, response)`` pairs as they arrive."""
        return self.transport.poll(block=block)

    @property
    def outstanding(self) -> int:
        return self.transport.outstanding

    def broadcast(self, kind: str, payload) -> dict[int, object]:
        return self.request(
            kind, {shard_id: payload for shard_id in range(self.num_shards)}
        )

    def stats(self) -> dict[int, dict]:
        return self.broadcast("stats", None)

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        try:
            if self.transport is not None:
                self.transport.close()
                self.transport = None
        finally:
            self._shipped = None

    def __enter__(self) -> "ShardRuntime":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
