"""Synthetic generators specialised for the paper's dataset families."""

from __future__ import annotations

import numpy as np

from repro.errors import DatasetError
from repro.graphs.graph import Graph
from repro.utils.rng import draw_stream, ensure_rng


def scale_free_directed_graph(
    num_nodes: int,
    out_degree: int,
    *,
    reciprocity: float = 0.2,
    rng: int | np.random.Generator | None = None,
) -> Graph:
    """Directed preferential-attachment graph (Bitcoin/Email-like).

    Each incoming node issues ``out_degree`` arcs to existing nodes chosen
    preferentially by current in-degree, so in-degrees are heavy-tailed as
    in trust/communication networks.  With probability ``reciprocity`` each
    arc also gains its reverse arc, matching the partial mutuality of
    who-trusts-whom graphs.
    """
    if num_nodes < 2:
        raise DatasetError("scale_free_directed_graph needs at least 2 nodes")
    if out_degree < 1:
        raise DatasetError(f"out_degree must be >= 1, got {out_degree}")
    if not 0.0 <= reciprocity <= 1.0:
        raise DatasetError("reciprocity must be in [0, 1]")
    generator = ensure_rng(rng)

    start = min(out_degree + 1, num_nodes - 1)
    edges: set[tuple[int, int]] = set()
    # Preferential pool: node ids repeated once per received arc (+1 smoothing).
    pool: list[int] = list(range(start))
    with draw_stream(generator) as draws:
        random, integers = draws.random, draws.integers
        for new_node in range(start, num_nodes):
            arcs = min(out_degree, new_node)
            chosen: set[int] = set()
            while len(chosen) < arcs:
                if random() < 0.2:  # uniform exploration keeps pool fresh
                    candidate = integers(new_node)
                else:
                    candidate = pool[integers(len(pool))]
                if candidate != new_node:
                    chosen.add(candidate)
            for target in chosen:
                edges.add((new_node, target))
                pool.append(target)
                if random() < reciprocity:
                    edges.add((target, new_node))
                    pool.append(new_node)
    return Graph(num_nodes, np.asarray(sorted(edges), dtype=np.int64), directed=True)


def community_directed_graph(
    num_nodes: int,
    num_communities: int,
    avg_degree: float,
    *,
    mixing: float = 0.1,
    rng: int | np.random.Generator | None = None,
) -> Graph:
    """Dense directed community graph (Email-Eu-core-like).

    The Email dataset is a small, dense institutional email network with
    department structure: most arcs stay within a community, a fraction
    ``mixing`` crosses communities.
    """
    if num_nodes < num_communities or num_communities < 1:
        raise DatasetError("need num_nodes >= num_communities >= 1")
    if avg_degree <= 0 or avg_degree >= num_nodes:
        raise DatasetError("avg_degree must be in (0, num_nodes)")
    generator = ensure_rng(rng)

    community = generator.integers(0, num_communities, size=num_nodes)
    members = [np.flatnonzero(community == c).tolist() for c in range(num_communities)]
    # Guard against empty communities on tiny graphs.
    members = [m if m else [0] for m in members]
    homes = [members[c] for c in community.tolist()]

    total_arcs = int(round(avg_degree * num_nodes))
    edges: set[tuple[int, int]] = set()
    attempts = 0
    with draw_stream(generator) as draws:
        random, integers = draws.random, draws.integers
        while len(edges) < total_arcs and attempts < 20 * total_arcs:
            attempts += 1
            source = integers(num_nodes)
            if random() < mixing:
                target = integers(num_nodes)
            else:
                home = homes[source]
                target = home[integers(len(home))]
            if source != target:
                edges.add((source, target))
    return Graph(num_nodes, np.asarray(sorted(edges), dtype=np.int64), directed=True)
