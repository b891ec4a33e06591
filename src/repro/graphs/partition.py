"""Graph partitioning for very large networks.

The paper's Friendster experiment (65.6M nodes, 1.8B edges) cannot fit in
memory on the evaluation machine, so the authors "partition Friendster into
multiple graphs during both training and evaluation".  This module provides
the same facility: split a graph into node partitions and return the induced
subgraphs, either by hashing node ids (cheap, uniform) or by BFS growth
(locality-preserving, fewer cut edges).

Two cut-edge semantics exist:

* **Drop mode** (:func:`partition_graph`, this module): each partition is the
  induced subgraph on its nodes, so every cut edge disappears.  This matches
  the paper's Friendster setup but loses structure; :class:`PartitionStats`
  quantifies exactly how much.
* **Halo mode** (:mod:`repro.sharding`): each shard keeps its cut edges and
  carries read-only ghost copies of the cross-shard endpoints ("halo nodes"),
  so the union of shards reproduces the original graph bit-exactly and
  random walks can cross shard boundaries.  Use that path when fidelity
  matters more than per-part independence.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.errors import GraphError
from repro.graphs.graph import Graph
from repro.utils.rng import ensure_rng


@dataclass(frozen=True)
class PartitionStats:
    """Edge-cut accounting for one partition assignment.

    ``cut_arcs`` counts directed arcs whose endpoints land in different
    partitions — exactly the arcs :func:`partition_graph` drops and
    :mod:`repro.sharding` preserves via halo nodes.
    """

    num_parts: int
    method: str
    sizes: tuple[int, ...]
    cut_arcs: int
    total_arcs: int

    @property
    def cut_fraction(self) -> float:
        """Fraction of arcs lost to the cut (0.0 on an arcless graph)."""
        if self.total_arcs == 0:
            return 0.0
        return self.cut_arcs / self.total_arcs

    @property
    def balance(self) -> float:
        """Largest partition size over the ideal even share (>= 1.0)."""
        if not self.sizes or max(self.sizes) == 0:
            return 1.0
        ideal = sum(self.sizes) / len(self.sizes)
        return max(self.sizes) / max(ideal, 1.0)

    def as_dict(self) -> dict:
        return {
            "num_parts": self.num_parts,
            "method": self.method,
            "sizes": list(self.sizes),
            "cut_arcs": self.cut_arcs,
            "total_arcs": self.total_arcs,
            "cut_fraction": self.cut_fraction,
            "balance": self.balance,
        }


def partition_assignment(
    graph: Graph,
    num_parts: int,
    *,
    method: str = "bfs",
    rng: int | np.random.Generator | None = None,
) -> np.ndarray:
    """Assign every node to a partition; returns ``int64[num_nodes]``.

    This is the assignment step shared by :func:`partition_graph` (drop
    mode) and :func:`repro.sharding.build_shard_set` (halo mode): both
    semantics differ only in what happens to cut edges afterwards.
    """
    if num_parts < 1:
        raise GraphError(f"num_parts must be >= 1, got {num_parts}")
    if num_parts > max(graph.num_nodes, 1):
        raise GraphError("num_parts cannot exceed the number of nodes")
    if method not in ("hash", "bfs"):
        raise GraphError(f"method must be 'hash' or 'bfs', got {method!r}")
    generator = ensure_rng(rng)

    if method == "hash":
        assignment = generator.integers(0, num_parts, size=graph.num_nodes)
        # Guarantee non-empty partitions by reassigning one node to each
        # empty part (only matters for tiny graphs).
        for part in range(num_parts):
            if not np.any(assignment == part):
                donor_parts, counts = np.unique(assignment, return_counts=True)
                donor = donor_parts[np.argmax(counts)]
                victim = np.flatnonzero(assignment == donor)[0]
                assignment[victim] = part
        return assignment.astype(np.int64, copy=False)
    return _bfs_partition(graph, num_parts, generator)


def compute_partition_stats(
    graph: Graph, assignment: np.ndarray, *, method: str = "unknown"
) -> PartitionStats:
    """Measure the edge cut and balance of a partition ``assignment``."""
    assignment = np.asarray(assignment, dtype=np.int64)
    if assignment.shape != (graph.num_nodes,):
        raise GraphError(
            "assignment must have one entry per node, got shape "
            f"{assignment.shape} for {graph.num_nodes} nodes"
        )
    num_parts = int(assignment.max()) + 1 if assignment.size else 0
    sizes = np.bincount(assignment, minlength=max(num_parts, 1))
    sources, targets, _ = graph.edge_arrays()
    cut_arcs = int(np.count_nonzero(assignment[sources] != assignment[targets]))
    return PartitionStats(
        num_parts=max(num_parts, 1),
        method=method,
        sizes=tuple(int(s) for s in sizes),
        cut_arcs=cut_arcs,
        total_arcs=int(len(sources)),
    )


def partition_graph(
    graph: Graph,
    num_parts: int,
    *,
    method: str = "bfs",
    rng: int | np.random.Generator | None = None,
    obs=None,
    return_stats: bool = False,
):
    """Split ``graph`` into ``num_parts`` induced subgraphs.

    Args:
        graph: the graph to partition.
        num_parts: number of partitions (each non-empty when
            ``num_parts <= num_nodes``).
        method: ``"hash"`` assigns nodes uniformly at random; ``"bfs"``
            grows balanced partitions along edges so communities stay mostly
            intact (the behaviour that matters for IM training quality).
        rng: seed or generator.
        obs: optional :class:`repro.obs.Observability`; when given, a
            ``"partition"`` event records the edge-cut statistics.
        return_stats: when True, return ``(partitions, stats)`` instead of
            just the partition list.

    Returns:
        List of ``(subgraph, node_map)`` pairs covering every node exactly
        once.  Cut edges (between partitions) are **dropped**, as in the
        paper's Friendster setup; :class:`PartitionStats` reports how many.
        For a lossless sharding of the same assignment see
        :func:`repro.sharding.build_shard_set`.
    """
    assignment = partition_assignment(graph, num_parts, method=method, rng=rng)
    partitions = []
    for part in range(num_parts):
        nodes = np.flatnonzero(assignment == part)
        partitions.append(graph.subgraph(nodes))

    stats = None
    if obs is not None or return_stats:
        stats = compute_partition_stats(graph, assignment, method=method)
    if obs is not None:
        obs.event("partition", **stats.as_dict())
    if return_stats:
        return partitions, stats
    return partitions


def _bfs_partition(
    graph: Graph, num_parts: int, generator: np.random.Generator
) -> np.ndarray:
    """Grow ``num_parts`` balanced partitions by breadth-first expansion."""
    target_size = int(np.ceil(graph.num_nodes / num_parts))
    assignment = np.full(graph.num_nodes, -1, dtype=np.int64)
    visit_order = generator.permutation(graph.num_nodes).tolist()
    out_indptr, out_indices, _ = graph.out_csr()
    in_indptr, in_indices, _ = graph.in_csr()
    order_position = 0
    part = 0
    part_size = 0
    frontier: deque[int] = deque()

    def next_unassigned() -> int | None:
        nonlocal order_position
        while order_position < len(visit_order):
            candidate = visit_order[order_position]
            order_position += 1
            if assignment[candidate] < 0:
                return candidate
        return None

    while True:
        if not frontier:
            seed = next_unassigned()
            if seed is None:
                break
            frontier.append(seed)
        node = frontier.popleft()
        if assignment[node] >= 0:
            continue
        assignment[node] = part
        part_size += 1
        if part_size >= target_size and part < num_parts - 1:
            part += 1
            part_size = 0
            frontier.clear()
            continue
        # Unassigned out-neighbours, then in-neighbours, each in row order.
        for indptr, indices in ((out_indptr, out_indices), (in_indptr, in_indices)):
            row = indices[indptr[node] : indptr[node + 1]]
            frontier.extend(row[assignment[row] < 0].tolist())
    return assignment
