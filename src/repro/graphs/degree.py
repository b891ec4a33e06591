"""Degree-bounding projections.

The naive PrivIM pipeline (Section III-B) projects the training graph to a
θ-bounded graph ``G^θ`` by *randomly removing* in-edges from every node whose
in-degree exceeds θ.  Bounding the in-degree bounds how many subgraphs a
single node can leak into (Lemma 1), which in turn bounds the DP sensitivity
(Lemma 2).
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphError
from repro.graphs.graph import Graph
from repro.utils.rng import ensure_rng


def project_in_degree(
    graph: Graph, theta: int, rng: int | np.random.Generator | None = None
) -> Graph:
    """Project ``graph`` to the θ-bounded graph ``G^θ`` (in-degree ≤ θ).

    For every node with in-degree above ``theta`` a uniformly random subset
    of exactly ``theta`` in-edges is kept (Algorithm 1's preprocessing):
    one ``generator.choice(degree, theta, replace=False)`` per such node,
    in node order.  The result is built from the edge list ordered by
    target, each row's kept arcs in draw order, so it is byte-identical
    to the per-node loop ``reference_project_in_degree`` in
    ``tests/oracles.py``.

    Args:
        graph: the original graph.
        theta: maximum in-degree after projection; must be ≥ 1.
        rng: seed or generator for the random edge selection.

    Returns:
        A new :class:`Graph` whose in-degrees are all ≤ ``theta``.
    """
    if theta < 1:
        raise GraphError(f"theta must be >= 1, got {theta}")
    generator = ensure_rng(rng)

    in_indptr, in_sources, in_weights = graph.in_csr()
    degrees = np.diff(in_indptr)
    over = np.flatnonzero(degrees > theta)
    lengths = degrees.copy()
    lengths[over] = theta
    kept_indptr = np.zeros(graph.num_nodes + 1, dtype=np.int64)
    np.cumsum(lengths, out=kept_indptr[1:])
    # In-arc position per kept slot: whole rows first, then each over-θ
    # row overwritten with its kept positions in draw order (one choice
    # per over-θ node, in node order).
    take = np.repeat(in_indptr[:-1] - kept_indptr[:-1], lengths) + np.arange(
        int(kept_indptr[-1]), dtype=np.int64
    )
    if len(over):
        choice = generator.choice
        keep = np.empty((len(over), theta), dtype=np.int64)
        for row, degree in enumerate(degrees[over].tolist()):
            keep[row] = choice(degree, size=theta, replace=False)
        slots = kept_indptr[over][:, None] + np.arange(theta)
        take[slots.ravel()] = (in_indptr[over][:, None] + keep).ravel()

    # The edge list runs target ascending, kept arcs in draw order.
    targets = np.repeat(np.arange(graph.num_nodes, dtype=np.int64), lengths)
    edges = np.stack([in_sources[take], targets], axis=1)
    projected = Graph(graph.num_nodes, edges, in_weights[take], directed=True)
    projected.is_directed = graph.is_directed
    return projected


def project_out_degree(
    graph: Graph, theta: int, rng: int | np.random.Generator | None = None
) -> Graph:
    """Bound every node's *out*-degree to ``theta`` (edge-level DP variant)."""
    return project_in_degree(graph.reverse(), theta, rng).reverse()
