"""Stacked GNN models and the factory used throughout the experiments.

The paper's default model is a three-layer GRAT with 32 hidden units whose
head emits one probability per node (the likelihood of being picked for the
seed set).  :func:`build_gnn` produces any of the five evaluated
architectures behind the same interface.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import TrainingError
from repro.gnn.inference import EdgePass, node_scratch, relu_
from repro.gnn.layers import GATConv, GCNConv, GINConv, GRATConv, SAGEConv
from repro.nn import kernels
from repro.nn.module import Linear, Module
from repro.nn.tensor import Tensor
from repro.utils.rng import spawn_rngs

_LAYER_TYPES = {
    "gcn": GCNConv,
    "sage": SAGEConv,
    "graphsage": SAGEConv,
    "gat": GATConv,
    "grat": GRATConv,
    "gin": GINConv,
}


def available_models() -> list[str]:
    """Canonical model names accepted by :func:`build_gnn`."""
    return ["grat", "gcn", "gat", "gin", "sage"]


@dataclass
class GNNConfig:
    """Hyperparameters of a stacked GNN.

    Attributes:
        model: one of :func:`available_models` (paper default ``"grat"``).
        in_features: node feature dimensionality (default matches
            :func:`repro.gnn.features.degree_features`).
        hidden_features: width of each hidden layer (paper uses 32).
        num_layers: message-passing depth ``r`` (paper uses 3).
        attention_heads: heads for the attention models (GAT/GRAT);
            ``hidden_features`` must be divisible by it.
        rng: seed for weight initialisation.
    """

    model: str = "grat"
    in_features: int = 5
    hidden_features: int = 32
    num_layers: int = 3
    attention_heads: int = 1
    rng: int | np.random.Generator | None = field(default=None, repr=False)


class GNN(Module):
    """``num_layers`` convolutions + ReLU, then a scalar sigmoid head.

    ``forward`` returns a ``(N,)`` tensor of per-node seed probabilities
    ``φ(h_u) ∈ (0, 1)`` — the quantity Eq. 5's second term sums and the
    seed selector ranks.
    """

    def __init__(self, config: GNNConfig) -> None:
        name = config.model.lower()
        if name not in _LAYER_TYPES:
            raise TrainingError(
                f"unknown model {config.model!r}; choose from {available_models()}"
            )
        if config.num_layers < 1:
            raise TrainingError("num_layers must be >= 1")
        layer_type = _LAYER_TYPES[name]
        rngs = spawn_rngs(config.rng, config.num_layers + 1)

        self.config = config
        self.convs = []
        width_in = config.in_features
        attention_types = (GATConv, GRATConv)
        for layer_index in range(config.num_layers):
            if layer_type in attention_types and config.attention_heads > 1:
                conv = layer_type(
                    width_in,
                    config.hidden_features,
                    heads=config.attention_heads,
                    rng=rngs[layer_index],
                )
            else:
                conv = layer_type(width_in, config.hidden_features, rng=rngs[layer_index])
            self.convs.append(conv)
            width_in = config.hidden_features
        self.head = Linear(config.hidden_features, 1, rng=rngs[-1])
        # The hidden activations are ReLU outputs (non-negative), so a
        # non-negative head makes the *untrained* ranking monotone in
        # activation magnitude instead of an arbitrary sign flip.  Under DP
        # the number of informative updates is limited, so starting from a
        # structurally sensible ranking matters (FastCover-style models rely
        # on the same monotonicity once trained).
        self.head.weight.data = np.abs(self.head.weight.data)

    @property
    def num_layers(self) -> int:
        """Message-passing depth ``r`` (determines N_g via Lemma 1)."""
        return self.config.num_layers

    def node_embeddings(
        self,
        x: Tensor,
        edge_index: np.ndarray,
        edge_weight: np.ndarray | None = None,
        *,
        plan=None,
    ) -> Tensor:
        """Hidden representation after all convolutions, shape ``(N, hidden)``.

        ``plan`` optionally carries a
        :class:`repro.core.compute_plan.ComputePlan` built for the same
        edge set, letting the layers reuse static derived arrays instead of
        rebuilding them each call; it never changes the result.
        """
        hidden = x
        for conv in self.convs:
            hidden = conv(hidden, edge_index, edge_weight, plan=plan).relu()
        return hidden

    def forward(
        self,
        x: Tensor,
        edge_index: np.ndarray,
        edge_weight: np.ndarray | None = None,
        *,
        plan=None,
    ) -> Tensor:
        hidden = self.node_embeddings(x, edge_index, edge_weight, plan=plan)
        return self.head(hidden).sigmoid().reshape(-1)

    def infer(
        self,
        x: np.ndarray,
        edge_index: np.ndarray,
        edge_weight: np.ndarray | None = None,
    ) -> np.ndarray:
        """Autograd-free :meth:`forward`: the same ``(N,)`` scores, byte for byte.

        Every layer replays ``forward``'s floating-point operations on plain
        arrays; the layers share one :class:`~repro.gnn.inference.EdgePass`,
        holding the process's :func:`~repro.gnn.inference.node_scratch`
        when no other forward does.  The scores are a fresh array.
        """
        hidden = np.asarray(x, dtype=np.float64)
        edges = EdgePass(edge_index, edge_weight, hidden.shape[0])
        with node_scratch() as edges.scratch:
            for conv in self.convs:
                hidden = relu_(conv._infer(hidden, edges))
            logits = self.head.infer(hidden)
        return kernels.sigmoid(logits).reshape(-1)


def build_gnn(
    model: str = "grat",
    *,
    in_features: int = 5,
    hidden_features: int = 32,
    num_layers: int = 3,
    attention_heads: int = 1,
    rng: int | np.random.Generator | None = None,
) -> GNN:
    """Construct a :class:`GNN` (paper defaults: 3-layer GRAT, 32 hidden).

    ``attention_heads`` applies to the attention architectures (GAT/GRAT);
    ``hidden_features`` must be divisible by it.
    """
    config = GNNConfig(
        model=model,
        in_features=in_features,
        hidden_features=hidden_features,
        num_layers=num_layers,
        attention_heads=attention_heads,
        rng=rng,
    )
    return GNN(config)
