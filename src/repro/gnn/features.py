"""Structural node features.

The paper's datasets carry no node attributes, so (as is standard for
structure-only IM learning, e.g. FastCover/GRAT) nodes are featurised from
local structure: normalised in/out degree plus a constant channel.  The same
featuriser is applied to each training subgraph and to the full evaluation
graph so train and inference distributions match.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphError
from repro.graphs.graph import Graph


def degree_features(graph: Graph, *, dim: int = 5) -> np.ndarray:
    """Per-node structural features of dimension ``dim``.

    Channels, in order:

    0. out-degree, log-scaled and max-normalised;
    1. in-degree, log-scaled and max-normalised;
    2. constant 1 (bias channel);
    3. inverse degree ``1 / (1 + deg_out)`` (when ``dim >= 4``);
    4+. seeded uniform random channels (when ``dim >= 5``).

    Log scaling keeps heavy-tailed social-network degrees in a bounded range
    so clipped DP gradients are not dominated by hub nodes.  The random
    channels are standard symmetry-breaking features: a *trained* model
    learns to rely on the structural channels, whereas a model whose weights
    have been randomised by DP noise mixes the random channels into its
    scores and its seed ranking degrades accordingly — without them, degree
    features are so mutually parallel that even a destroyed model ranks
    nodes by degree and no utility is ever lost to noise.

    The features depend on ``graph``'s structure alone, so they are built
    once per graph and dimension and stored on the graph
    (:meth:`~repro.graphs.graph.Graph.derived`): every call for the same
    graph returns the same **read-only** array.  Callers needing a
    mutable matrix must copy.
    """
    if dim < 1:
        raise GraphError(f"feature dim must be >= 1, got {dim}")
    dim = int(dim)
    return graph.derived(("degree_features", dim), lambda: _build_features(graph, dim))


def _build_features(graph: Graph, dim: int) -> np.ndarray:
    out_deg = graph.out_degrees().astype(np.float64)
    in_deg = graph.in_degrees().astype(np.float64)

    def normalised(values: np.ndarray) -> np.ndarray:
        scaled = np.log1p(values)
        peak = scaled.max() if scaled.size and scaled.max() > 0 else 1.0
        return scaled / peak

    channels = [
        normalised(out_deg),
        normalised(in_deg),
        np.ones(graph.num_nodes),
        1.0 / (1.0 + out_deg),
    ]
    if dim > len(channels):
        # Deterministic per-call noise: a fixed seed keeps featurisation
        # reproducible for a given graph size.
        noise_rng = np.random.default_rng(0x5EED)
        for _ in range(dim - len(channels)):
            channels.append(noise_rng.uniform(0.0, 1.0, size=graph.num_nodes))
    features = np.stack(channels[:dim], axis=1)
    features.setflags(write=False)
    return features
