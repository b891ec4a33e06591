"""Seed selection from a trained model.

After training, the GNN scores every node of the evaluation graph with its
seed probability ``φ(h_u)``; the top-``k`` nodes form the seed set
(Section III-C).  Scoring runs the model's autograd-free ``infer`` path,
byte-equal to its ``forward``: it builds no tape.

Score ties are broken by a seeded random permutation, not by node id: a
stable argsort on ``-scores`` silently preferred low-id nodes whenever the
model plateaued (constant or near-constant scores), biasing every
downstream spread estimate toward whatever the dataset's id order encodes.
The permutation is drawn from ``rng`` (default seed
:data:`DEFAULT_TIE_BREAK_SEED`), so results stay reproducible while ties
land uniformly across the tied nodes.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TrainingError
from repro.gnn.features import degree_features
from repro.gnn.models import GNN
from repro.graphs.graph import Graph
from repro.utils.rng import ensure_rng

#: Seed of the tie-breaking permutation when no ``rng`` is supplied, so the
#: default behaviour is documented-deterministic (and id-unbiased).
DEFAULT_TIE_BREAK_SEED = 0x5EED


def score_nodes(
    model: GNN,
    graph: Graph,
    *,
    features: np.ndarray | None = None,
) -> np.ndarray:
    """Per-node seed probabilities on ``graph`` (shape ``(|V|,)``).

    Args:
        model: the trained GNN.
        graph: the graph to score.
        features: optional node features of shape ``(|V|, in_features)``.
            ``None`` uses :func:`repro.gnn.features.degree_features`, which
            ``graph`` builds once and stores, so scoring the same graph
            again pays no featurisation.
    """
    if features is None:
        feature_array = degree_features(graph, dim=model.config.in_features)
    else:
        feature_array = np.asarray(features, dtype=np.float64)
        expected = (graph.num_nodes, model.config.in_features)
        if feature_array.shape != expected:
            raise TrainingError(
                f"precomputed features must have shape {expected}, "
                f"got {feature_array.shape}"
            )
    return model.infer(feature_array, graph.edge_index(), graph.edge_arrays()[2])


def top_k_by_score(
    scores: np.ndarray,
    k: int,
    rng: int | np.random.Generator | None = None,
) -> list[int]:
    """Indices of the ``k`` largest scores, ties broken by seeded shuffle.

    Args:
        scores: one score per node.
        k: how many indices to return (``1 <= k <= len(scores)``).
        rng: seed or generator for the tie-breaking permutation; ``None``
            uses :data:`DEFAULT_TIE_BREAK_SEED` for a deterministic default.

    Returns:
        Node indices in non-increasing score order; equal scores appear in
        the order of a random permutation drawn from ``rng``.
    """
    scores = np.asarray(scores)
    if not 1 <= k <= len(scores):
        raise TrainingError(f"k must be in [1, {len(scores)}], got {k}")
    generator = ensure_rng(DEFAULT_TIE_BREAK_SEED if rng is None else rng)
    permutation = generator.permutation(len(scores))
    # Stable argsort over permuted scores orders ties by the permutation,
    # then the permutation maps the winners back to original node ids.
    order = permutation[np.argsort(-scores[permutation], kind="stable")]
    return [int(node) for node in order[:k]]


def select_top_k_seeds(
    model: GNN,
    graph: Graph,
    k: int,
    *,
    rng: int | np.random.Generator | None = None,
    features: np.ndarray | None = None,
) -> list[int]:
    """The top-``k`` nodes by model score (the paper's seed rule).

    ``rng`` seeds the tie-breaking permutation only — it never changes
    which score values win, just which of several *equally scored* nodes
    fill the last seats.  ``features`` passes precomputed node features
    through to :func:`score_nodes`.
    """
    if not 1 <= k <= graph.num_nodes:
        raise TrainingError(f"k must be in [1, {graph.num_nodes}], got {k}")
    return top_k_by_score(score_nodes(model, graph, features=features), k, rng)
