"""Resumable random-walk state machine and the in-process shard host.

Every sampler walks here, flat graphs included (as one whole-graph
shard).  The serial oracle is
:func:`repro.sampling.random_walk.random_walk_nodes`: one restart draw, one
chooser draw per step, candidates consumed in CSR row order ("out"/"in")
or sorted-unique order ("both").  A :class:`WalkTask` carries exactly the
state that loop holds between steps — current node, step count, visited
list, and the walk's own child RNG — so a walk can be suspended mid-step
when it lands on a node another shard owns, handed to that shard's
:class:`ShardView`, and resumed there **without losing or reordering a
single RNG draw**.

The one subtlety is the restart draw: it happens *before* we know which
node the step leaves from (a restart teleports the walk back to its start).
``restart_drawn`` records that the draw for the pending step already
happened, so a walk handed over after its restart draw does not draw again
on arrival.  Everything else is pure replay of the serial loop against the
local shard's rows.

:class:`ShardView` hosts one shard for the coordinator: walk batches, the
distributed θ-projection's shard-side phases, r-hop ball rows, and induced
arcs, each a named method the coordinator calls directly.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np

from repro.sampling.frequency import adaptive_neighbor_weights
from repro.sharding.partition import _row_gather

__all__ = ["WalkParams", "WalkTask", "ShardView", "advance_walk"]


@dataclass(frozen=True)
class WalkParams:
    """Per-pass walk parameters, installed once on every shard view."""

    kind: str  # "uniform" (Algorithm 1) or "frequency" (Algorithm 3)
    target_size: int
    walk_length: int
    restart_probability: float
    direction: str
    threshold: int = 0
    decay: float = 1.0
    use_projected: bool = False


@dataclass(slots=True)
class WalkTask:
    """One in-flight walk, handed between shard views as it crosses shards."""

    key: int  # walk-local start id: child-stream key AND validation order
    start: int  # global start node
    start_owner: int
    current: int
    steps: int
    restart_drawn: bool
    visited: list[int]
    generator: np.random.Generator
    allowed: frozenset[int] | None = None


def _timed(method):
    """Add the wall time of ``method`` to the view's ``seconds``."""

    @functools.wraps(method)
    def timed(self, *args):
        began = time.perf_counter()
        try:
            return method(self, *args)
        finally:
            self.seconds += time.perf_counter() - began

    return timed


class ShardView:
    """The in-process host of one shard: rows, residency, snapshots.

    Walk candidates are cached per owned node for the current pass, with
    the pass's stage-2 availability mask already applied: a walk step
    costs one dict lookup however many shards there are, and residency
    is tested only on a cache miss.  ``seconds`` and ``walks_advanced``
    account the work done through the coordinator-facing methods.
    """

    def __init__(self, shard) -> None:
        self.shard = shard
        self.seconds = 0.0
        self.walks_advanced = 0
        self.params: WalkParams | None = None
        # Stage-2 availability mask over GLOBAL ids (bool[num_global_nodes])
        # or None when walking the full graph.
        self.availability: np.ndarray | None = None
        # Live-count snapshot over GLOBAL ids: the chunk-synchronous
        # frequency snapshot the Eq. 9 chooser reads, one array shared by
        # every view and refreshed by the coordinator at each chunk's start.
        self.snapshot: np.ndarray | None = None
        # Projected CSR installed by the distributed θ-projection:
        # (out_indptr, out_local, out_weights, in_indptr, in_local, in_weights)
        self.projection: tuple | None = None
        self._candidates: dict[int, np.ndarray] = {}
        # Eq. 9 weight per occurrence count 0..M (counts never pass M).
        self.weight_of_count: np.ndarray | None = None

    @_timed
    def begin_pass(self, params: WalkParams, availability: np.ndarray | None) -> None:
        """Install one pass's walk parameters and availability mask."""
        self.params = params
        self.availability = availability
        self._candidates = {}
        if params.kind == "frequency":
            self.weight_of_count = adaptive_neighbor_weights(
                np.arange(params.threshold + 1), params.threshold, params.decay
            )

    def install_projection(self, projection: tuple | None) -> None:
        self.projection = projection
        self._candidates = {}

    @_timed
    def advance(
        self, walks: list[WalkTask]
    ) -> tuple[dict[int, list[int] | None], dict[int, list[WalkTask]]]:
        """Advance a batch of walks on this shard.

        Returns ``(finished, forward)``: ``{key: nodes_or_None}`` for the
        walks that terminated here, and ``{dest_shard: walks}`` for the
        ones that stepped onto a node another shard owns."""
        finished: dict[int, list[int] | None] = {}
        forward: dict[int, list[WalkTask]] = {}
        for walk in walks:
            status, value = advance_walk(walk, self)
            if status == "done":
                finished[walk.key] = value
            else:
                forward.setdefault(value, []).append(walk)
        self.walks_advanced += len(walks)
        return finished, forward

    # ------------------------------------------------------------------ #
    # distributed θ-projection (phases A, C, D)
    # ------------------------------------------------------------------ #
    @_timed
    def in_degrees(self) -> tuple[np.ndarray, np.ndarray]:
        """Phase A: ``(owned global ids, their in-degrees)``."""
        shard = self.shard
        return shard.owned, np.diff(shard.in_indptr)

    @_timed
    def project_keep(
        self, nodes: np.ndarray, keep: np.ndarray
    ) -> dict[int, tuple[np.ndarray, ...]]:
        """Phase C: build the projected *in* rows of owned nodes and emit
        out-arc fragments grouped by the owner shard of each kept source.

        ``nodes`` are the owned nodes over θ and row ``i`` of ``keep`` the
        in-row positions node ``i`` keeps, in draw order; every other row
        is kept whole."""
        shard = self.shard
        over = shard.to_local(nodes)
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

    @_timed
    def project_out(self, parts: list[tuple[np.ndarray, ...]]) -> None:
        """Phase D: assemble the projected *out* rows from the fragments
        every shard emitted for this one, and install the projection."""
        shard = self.shard
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
        self.install_projection(
            (out_indptr, out_local, weights, in_indptr, in_local, in_weights)
        )

    # ------------------------------------------------------------------ #
    # rows
    # ------------------------------------------------------------------ #
    def _csr(self, kind: str, use_projected: bool):
        """``(indptr, local ids, weights)`` of the out or in rows walked:
        the installed θ-projection, or the shard's own rows."""
        if use_projected and self.projection is not None:
            offset = 0 if kind == "out" else 3
            return self.projection[offset : offset + 3]
        shard = self.shard
        if kind == "out":
            return shard.out_indptr, shard.out_local, shard.out_weights
        return shard.in_indptr, shard.in_local, shard.in_weights

    def _row(self, node: int, kind: str, use_projected: bool) -> np.ndarray:
        indptr, local, _ = self._csr(kind, use_projected)
        pos = self.shard.owned_position(node)
        return self.shard.global_ids[local[indptr[pos] : indptr[pos + 1]]]

    def candidates(self, node: int) -> np.ndarray | None:
        """Global candidate ids of an owned node for the current pass,
        ordered exactly as the serial walker sees them (row order for
        "out"/"in", sorted-unique for "both"), availability applied;
        ``None`` when another shard owns ``node``."""
        row = self._candidates.get(node)
        if row is None:
            if not self.shard.is_owned(node):
                return None
            direction = self.params.direction
            use_projected = self.params.use_projected
            if direction == "both":
                row = np.unique(
                    np.concatenate(
                        [
                            self._row(node, "out", use_projected),
                            self._row(node, "in", use_projected),
                        ]
                    )
                )
            else:
                row = self._row(node, direction, use_projected)
            if self.availability is not None and len(row):
                row = row[self.availability[row]]
            self._candidates[node] = row
        return row

    @_timed
    def ball_rows(
        self, nodes: np.ndarray, direction: str, use_projected: bool
    ) -> tuple[np.ndarray, np.ndarray]:
        """Neighbour rows of owned ``nodes`` for r-hop ball growth, as a
        CSR ``(indptr, global ids)`` in ``nodes`` order.  Set semantics,
        as in ``k_hop_nodes``: order and duplicates within a row do not
        matter."""
        positions = self.shard.to_local(nodes)
        kinds = ("out", "in") if direction == "both" else (direction,)
        owners, values = [], []
        for kind in kinds:
            indptr, local, _ = self._csr(kind, use_projected)
            row_indptr, flat = _row_gather(indptr, positions)
            owners.append(np.repeat(np.arange(len(nodes)), np.diff(row_indptr)))
            values.append(self.shard.global_ids[local[flat]])
        owner = np.concatenate(owners)
        order = np.argsort(owner, kind="stable")
        indptr = np.zeros(len(nodes) + 1, dtype=np.int64)
        np.cumsum(np.bincount(owner, minlength=len(nodes)), out=indptr[1:])
        return indptr, np.concatenate(values)[order]

    @_timed
    def induced_arcs(
        self, nodes_sorted: np.ndarray, use_projected: bool
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Arcs of the induced subgraph on ``nodes_sorted`` whose source
        this shard owns, as ``(sources, targets, weights)`` in ascending
        source order with original within-row order preserved."""
        shard = self.shard
        owned_at = np.searchsorted(shard.owned, nodes_sorted)
        owned = np.zeros(len(nodes_sorted), dtype=bool)
        inside = owned_at < shard.num_owned
        owned[inside] = shard.owned[owned_at[inside]] == nodes_sorted[inside]
        indptr, local, weights = self._csr("out", use_projected)
        row_indptr, flat = _row_gather(indptr, owned_at[owned])
        sources = np.repeat(nodes_sorted[owned], np.diff(row_indptr))
        targets = shard.global_ids[local[flat]]
        at = np.minimum(np.searchsorted(nodes_sorted, targets), len(nodes_sorted) - 1)
        keep = nodes_sorted[at] == targets
        return sources[keep], targets[keep], weights[flat[keep]]


def _choose(
    params: WalkParams,
    view: ShardView,
    candidates: np.ndarray,
    generator: np.random.Generator,
) -> int | None:
    """Replay of uniform_chooser / make_frequency_chooser, draw-for-draw."""
    if len(candidates) == 0:
        return None
    if params.kind == "uniform":
        index = int(generator.integers(0, len(candidates)))
        return int(candidates[index])
    # adaptive_neighbor_probabilities, then generator.choice(len, p=...)
    # inlined without its per-call validation of p: the same weights, the
    # same cdf and the same one draw.
    weights = view.weight_of_count[view.snapshot[candidates]]
    total = weights.sum()
    if total <= 0:
        return None
    cdf = (weights / total).cumsum()
    cdf /= cdf[-1]
    return int(candidates[int(cdf.searchsorted(generator.random(), side="right"))])


def advance_walk(walk: WalkTask, view: ShardView):
    """Advance ``walk`` on this shard until it finishes or leaves.

    Returns ``("done", nodes_or_None)`` when the walk terminates (success
    or exhausted walk budget) or ``("forward", dest_shard)`` when the
    current node belongs to another shard; the caller forwards the mutated
    task there.  Mirrors ``random_walk_nodes`` step-for-step.
    """
    params = view.params
    generator = walk.generator
    visited = walk.visited
    visited_set = set(visited)
    if params.target_size == 1:
        return ("done", list(visited))
    while walk.steps < params.walk_length:
        if not walk.restart_drawn:
            if generator.random() < params.restart_probability:
                walk.current = walk.start
            walk.restart_drawn = True
        current = walk.current
        candidates = view.candidates(current)
        if candidates is None:
            # A restart can teleport to a start node this shard has never
            # seen (not even as a halo); its owner travels with the task.
            if current == walk.start:
                return ("forward", walk.start_owner)
            return ("forward", view.shard.owner_of(current))
        if walk.allowed is not None and len(candidates):
            keep = np.fromiter(
                (candidate in walk.allowed for candidate in candidates.tolist()),
                dtype=bool,
                count=len(candidates),
            )
            candidates = candidates[keep]
        next_node = _choose(params, view, candidates, generator)
        walk.restart_drawn = False
        walk.steps += 1
        if next_node is None:
            walk.current = walk.start
            continue
        walk.current = next_node
        if next_node not in visited_set:
            visited.append(next_node)
            visited_set.add(next_node)
            if len(visited) == params.target_size:
                return ("done", list(visited))
    return ("done", None)
