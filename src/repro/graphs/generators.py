"""Native random-graph generators.

The paper evaluates on SNAP-style social/citation networks.  Without network
access those datasets cannot be downloaded, so the dataset registry
(:mod:`repro.datasets`) synthesises graphs with matched statistics using the
generators below.  Each generator is implemented natively (and
cross-validated against ``networkx`` in the test suite) because the graph
layer is a substrate the rest of the system depends on.

All generators accept a seed or ``numpy`` generator and are deterministic
given one.
"""

from __future__ import annotations

from itertools import filterfalse, islice

import numpy as np

from repro.errors import GraphError
from repro.graphs.graph import Graph
from repro.utils.rng import draw_stream, ensure_rng


def erdos_renyi_graph(
    num_nodes: int,
    edge_probability: float,
    *,
    directed: bool = False,
    rng: int | np.random.Generator | None = None,
) -> Graph:
    """G(n, p) random graph.

    Uses the geometric skipping trick so the cost is proportional to the
    number of generated edges rather than ``n^2``.
    """
    if num_nodes < 0:
        raise GraphError("num_nodes must be non-negative")
    if not 0.0 <= edge_probability <= 1.0:
        raise GraphError("edge_probability must be in [0, 1]")
    generator = ensure_rng(rng)

    if edge_probability == 0.0 or num_nodes < 2:
        return Graph(num_nodes, np.empty((0, 2), dtype=np.int64), directed=directed)

    # Total candidate pairs: ordered pairs without self-loops if directed,
    # otherwise unordered pairs.
    if directed:
        total_pairs = num_nodes * (num_nodes - 1)
    else:
        total_pairs = num_nodes * (num_nodes - 1) // 2

    if edge_probability == 1.0:
        picks = np.arange(total_pairs)
    else:
        # Geometric skipping over the linearised pair index.
        log_q = np.log1p(-edge_probability)
        picks_list = []
        position = -1
        while True:
            gap = int(np.floor(np.log(generator.random()) / log_q)) + 1
            position += gap
            if position >= total_pairs:
                break
            picks_list.append(position)
        picks = np.asarray(picks_list, dtype=np.int64)

    if directed:
        sources = picks // (num_nodes - 1)
        offsets = picks % (num_nodes - 1)
        targets = offsets + (offsets >= sources)  # skip the diagonal
    else:
        # Invert the row-major upper-triangle linearisation.
        sources = (
            num_nodes
            - 2
            - np.floor(
                np.sqrt(-8.0 * picks + 4.0 * num_nodes * (num_nodes - 1) - 7) / 2.0 - 0.5
            )
        ).astype(np.int64)
        targets = (
            picks
            + sources
            + 1
            - num_nodes * (num_nodes - 1) // 2
            + (num_nodes - sources) * ((num_nodes - sources) - 1) // 2
        ).astype(np.int64)

    edges = np.stack([sources, targets], axis=1)
    return Graph(num_nodes, edges, directed=directed)


def barabasi_albert_graph(
    num_nodes: int,
    attachment: int,
    *,
    rng: int | np.random.Generator | None = None,
) -> Graph:
    """Barabási–Albert preferential attachment graph (undirected).

    Produces the heavy-tailed degree distributions characteristic of the
    paper's social-network datasets.

    Args:
        num_nodes: final node count.
        attachment: edges added per incoming node (``m``); must satisfy
            ``1 <= attachment < num_nodes``.
    """
    if not 1 <= attachment < max(num_nodes, 1):
        raise GraphError(f"attachment must be in [1, num_nodes), got {attachment}")
    generator = ensure_rng(rng)

    # Repeated-nodes list: each endpoint occurrence gives preferential weight.
    repeated: list[int] = []
    edges: list[tuple[int, int]] = []
    targets = list(range(attachment))
    for new_node in range(attachment, num_nodes):
        for target in targets:
            edges.append((new_node, target))
            repeated.append(new_node)
            repeated.append(target)
        # Sample `attachment` distinct targets proportionally to degree.
        chosen: set[int] = set()
        while len(chosen) < attachment:
            chosen.add(repeated[int(generator.integers(0, len(repeated)))])
        targets = list(chosen)
    return Graph(num_nodes, np.asarray(edges, dtype=np.int64), directed=False)


def watts_strogatz_graph(
    num_nodes: int,
    neighbors: int,
    rewire_probability: float,
    *,
    rng: int | np.random.Generator | None = None,
) -> Graph:
    """Watts–Strogatz small-world graph (undirected).

    Args:
        num_nodes: node count.
        neighbors: each node connects to ``neighbors`` nearest ring
            neighbours (rounded down to even).
        rewire_probability: probability of rewiring each ring edge.
    """
    if num_nodes < 3:
        raise GraphError("watts_strogatz_graph needs at least 3 nodes")
    half = max(neighbors // 2, 1)
    if not 0.0 <= rewire_probability <= 1.0:
        raise GraphError("rewire_probability must be in [0, 1]")
    generator = ensure_rng(rng)

    edge_set: set[tuple[int, int]] = set()
    for node in range(num_nodes):
        for offset in range(1, half + 1):
            neighbor = (node + offset) % num_nodes
            edge_set.add((min(node, neighbor), max(node, neighbor)))

    edges = sorted(edge_set)
    rewired: set[tuple[int, int]] = set(edges)
    for edge in edges:
        if generator.random() >= rewire_probability:
            continue
        source = edge[0]
        rewired.discard(edge)
        for _ in range(10):  # retry a few times to avoid duplicates/self-loops
            candidate = int(generator.integers(0, num_nodes))
            new_edge = (min(source, candidate), max(source, candidate))
            if candidate != source and new_edge not in rewired:
                rewired.add(new_edge)
                break
        else:
            rewired.add(edge)  # give up, keep original edge
    return Graph(num_nodes, np.asarray(sorted(rewired), dtype=np.int64), directed=False)


def powerlaw_cluster_graph(
    num_nodes: int,
    attachment: int,
    triangle_probability: float,
    *,
    rng: int | np.random.Generator | None = None,
) -> Graph:
    """Holme–Kim power-law graph with tunable clustering (undirected).

    Like Barabási–Albert but each preferential attachment step is followed,
    with probability ``triangle_probability``, by a triad-closing step —
    giving both heavy-tailed degrees and the high clustering coefficients of
    real social networks (the paper's small-world remark in Section III-B).
    """
    if not 1 <= attachment < max(num_nodes, 1):
        raise GraphError(f"attachment must be in [1, num_nodes), got {attachment}")
    if not 0.0 <= triangle_probability <= 1.0:
        raise GraphError("triangle_probability must be in [0, 1]")
    generator = ensure_rng(rng)

    repeated: list[int] = list(range(attachment))
    adjacency: list[set[int]] = [set() for _ in range(num_nodes)]
    targets: list[int] = []
    with draw_stream(generator) as draws:
        random, integers = draws.random, draws.integers
        for new_node in range(attachment, num_nodes):
            mine = adjacency[new_node]
            added = 0
            last_target: int | None = None
            while added < attachment:
                count = 0
                if last_target is not None and random() < triangle_probability:
                    # Triad closure: the candidates are last_target's
                    # neighbours other than new_node (always one of them)
                    # and new_node's own neighbours.
                    nbrs = adjacency[last_target]
                    count = len(nbrs) - 1 - len(mine & nbrs)
                if count:
                    # The pick walks the set in its iteration order, which
                    # decides the graph, so no set is mutated to filter it.
                    excluded = mine | {new_node}
                    candidates = filterfalse(excluded.__contains__, nbrs)
                    target = next(islice(candidates, integers(count), None))
                else:
                    target = repeated[integers(len(repeated))]
                if target == new_node or target in mine:
                    continue
                mine.add(target)
                adjacency[target].add(new_node)
                targets.append(target)
                repeated += (new_node, target)
                last_target = target
                added += 1
    # Every new node gains exactly ``attachment`` edges, in node order.
    sources = np.repeat(np.arange(attachment, num_nodes, dtype=np.int64), attachment)
    edges = np.stack([sources, np.asarray(targets, dtype=np.int64)], axis=1)
    return Graph(num_nodes, edges, directed=False)


def stochastic_block_graph(
    block_sizes: list[int],
    within_probability: float,
    between_probability: float,
    *,
    directed: bool = False,
    rng: int | np.random.Generator | None = None,
) -> Graph:
    """Stochastic block model — used for community-structured workloads."""
    if not block_sizes or any(size <= 0 for size in block_sizes):
        raise GraphError("block_sizes must be positive")
    for name, p in (("within", within_probability), ("between", between_probability)):
        if not 0.0 <= p <= 1.0:
            raise GraphError(f"{name}_probability must be in [0, 1]")
    generator = ensure_rng(rng)

    num_nodes = sum(block_sizes)
    blocks = np.repeat(np.arange(len(block_sizes)), block_sizes)
    edges: list[tuple[int, int]] = []
    for u in range(num_nodes):
        start = 0 if directed else u + 1
        candidates = np.arange(start, num_nodes)
        if directed:
            candidates = candidates[candidates != u]
        probabilities = np.where(
            blocks[candidates] == blocks[u], within_probability, between_probability
        )
        mask = generator.random(len(candidates)) < probabilities
        edges.extend((u, int(v)) for v in candidates[mask])
    if not edges:
        return Graph(num_nodes, np.empty((0, 2), dtype=np.int64), directed=directed)
    return Graph(num_nodes, np.asarray(edges, dtype=np.int64), directed=directed)
