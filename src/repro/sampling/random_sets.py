"""Uniform random subgraph sampling (the EGN baseline's strategy).

EGN "randomly samples the subgraphs for training" (Section V-B): each
subgraph is the induced graph on ``n`` uniformly chosen nodes, with no
occurrence control whatsoever.  Its expected per-node occurrence is
``count · n / |V|`` but the *worst case* is ``count`` — which is what the
node-level sensitivity must assume, and why EGN needs the most noise.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SamplingError
from repro.graphs.graph import Graph
from repro.sampling.container import Subgraph, SubgraphContainer
from repro.utils.rng import ensure_rng


def sample_random_sets(
    graph: Graph,
    subgraph_size: int,
    count: int,
    rng: int | np.random.Generator | None = None,
) -> SubgraphContainer:
    """Sample ``count`` induced subgraphs on uniform node sets of size ``n``."""
    if subgraph_size < 1:
        raise SamplingError(f"subgraph_size must be >= 1, got {subgraph_size}")
    if subgraph_size > graph.num_nodes:
        raise SamplingError("subgraph_size cannot exceed the number of nodes")
    if count < 0:
        raise SamplingError(f"count must be >= 0, got {count}")
    generator = ensure_rng(rng)

    container = SubgraphContainer()
    for _ in range(count):
        nodes = generator.choice(graph.num_nodes, size=subgraph_size, replace=False)
        subgraph, node_map = graph.subgraph(nodes)
        container.add(Subgraph(subgraph, node_map))
    return container
