"""GNN layers and models (GCN, GraphSAGE, GAT, GRAT, GIN) on the autograd engine."""

from repro.gnn.message_passing import add_self_loops, aggregate_neighbors
from repro.gnn.layers import GATConv, GCNConv, GINConv, GRATConv, SAGEConv
from repro.gnn.models import GNN, GNNConfig, available_models, build_gnn
from repro.gnn.features import degree_features

__all__ = [
    "aggregate_neighbors",
    "add_self_loops",
    "GCNConv",
    "SAGEConv",
    "GATConv",
    "GRATConv",
    "GINConv",
    "GNN",
    "GNNConfig",
    "build_gnn",
    "available_models",
    "degree_features",
]
