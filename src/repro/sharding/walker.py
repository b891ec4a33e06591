"""Resumable random-walk state machine and the in-process shard host.

Every sampler walks here, flat graphs included (as one whole-graph
shard); this is the program's only random walk.  Its serial oracle is the
scalar RWR loop in ``tests/oracles.py``: one restart draw, one
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

:class:`ShardView` hosts one shard for the coordinator: walk batches and
induced arcs, each a named method the coordinator calls directly.
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

    A walk step looks its candidates up in one dict, however many shards
    there are; residency is tested only on a miss.  Rows live on the
    shard walked (:meth:`GraphShard.walk_row`), so they survive every
    pass, chunk and stage of a run — and, for the whole-graph shard,
    every run on the same graph.  Rows filtered by stage 2's availability
    mask stay on the view, for one pass.  ``seconds`` and ``walks_advanced`` account the work done through the
    coordinator-facing methods.
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
        # node -> its candidate row for the current pass: the shard's row
        # store unless the pass filters by availability.
        self._candidates: dict[int, np.ndarray] = {}
        # Eq. 9 weight per occurrence count 0..M (counts never pass M).
        self.weight_of_count: np.ndarray | None = None

    @_timed
    def begin_pass(self, params: WalkParams, availability: np.ndarray | None) -> None:
        """Install one pass's walk parameters and availability mask."""
        self.params = params
        self.availability = availability
        if availability is None:
            self._candidates = self.shard.rows.setdefault(params.direction, {})
        else:
            # A masked pass filters its own copies of the rows.  The Eq. 9
            # chooser gives a node at the cap M weight 0, so it is never
            # drawn either way, but a zero left in a row changes the
            # sequence ``weights.sum()`` adds under numpy's pairwise
            # summation: over 20,000 random μ=1 rows with 1–5 zeros
            # inserted, the sum changed in 7,085 rows and the normalised
            # cdf in 6,450.  An unmasked row would then at times draw
            # differently from the residual-graph walk it must equal.
            self._candidates = {}
        if params.kind == "frequency":
            self.weight_of_count = adaptive_neighbor_weights(
                np.arange(params.threshold + 1), params.threshold, params.decay
            )

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
    # rows
    # ------------------------------------------------------------------ #
    def candidates(self, node: int) -> np.ndarray | None:
        """Global candidate ids of an owned node for the current pass,
        ordered exactly as the serial walker sees them (row order for
        "out"/"in", sorted-unique for "both"), availability applied;
        ``None`` when another shard owns ``node``."""
        row = self._candidates.get(node)
        if row is None:
            row = self.shard.walk_row(node, self.params.direction)
            if row is None:
                return None
            if self.availability is not None and len(row):
                row = row[self.availability[row]]
            self._candidates[node] = row
        return row

    @_timed
    def induced_arcs(
        self, nodes_sorted: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Arcs of the induced subgraph on ``nodes_sorted`` whose source
        this shard owns, as ``(sources, targets, weights)`` in ascending
        source order with original within-row order preserved."""
        shard = self.shard
        owned_at = np.searchsorted(shard.owned, nodes_sorted)
        owned = np.zeros(len(nodes_sorted), dtype=bool)
        inside = owned_at < shard.num_owned
        owned[inside] = shard.owned[owned_at[inside]] == nodes_sorted[inside]
        row_indptr, flat = _row_gather(shard.out_indptr, owned_at[owned])
        sources = np.repeat(nodes_sorted[owned], np.diff(row_indptr))
        targets = shard.global_ids[shard.out_local[flat]]
        at = np.minimum(np.searchsorted(nodes_sorted, targets), len(nodes_sorted) - 1)
        keep = nodes_sorted[at] == targets
        return sources[keep], targets[keep], shard.out_weights[flat[keep]]


def _choose(
    params: WalkParams,
    view: ShardView,
    candidates: np.ndarray,
    generator: np.random.Generator,
) -> int | None:
    """One neighbour choice: uniform (Algorithm 1) or Eq. 9-weighted
    (Algorithm 3), draw-for-draw with the serial oracle's choosers."""
    if len(candidates) == 0:
        return None
    if params.kind == "uniform":
        index = int(generator.integers(0, len(candidates)))
        return int(candidates[index])
    # Eq. 9's normalised probabilities, then generator.choice(len, p=...)
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
    task there.  Mirrors the serial oracle's walk step-for-step.
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
            return ("forward", view.shard.halo_owner_of(current))
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
