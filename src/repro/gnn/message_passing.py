"""Edge-indexed message passing primitives.

A graph is presented to the GNN stack as:

* ``edge_index`` — ``(2, E)`` int array, row 0 sources, row 1 targets;
  messages flow source → target (matching the paper's convention that node
  ``u`` aggregates from its influencers ``v ∈ N(u)``, Eq. 1);
* ``edge_weight`` — ``(E,)`` float array of influence probabilities ``w_vu``.

All layers are built from two primitives: gather rows at sources, scatter-add
rows at targets.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.nn import functional as F
from repro.nn import kernels
from repro.nn.tensor import Tensor


def _row_width(shape: tuple[int, ...]) -> int:
    """Product of the non-leading dimensions (1 for 1-D shapes)."""
    width = 1
    for dim in shape[1:]:
        width *= dim
    return width


def unit_edge_weights(weights: np.ndarray, plan=None) -> bool:
    """Whether every edge weight is exactly 1.0 (making weighting a no-op).

    When ``weights`` is the plan graph's own weight array the answer comes
    from the graph's cached ``has_unit_weights`` flag; otherwise the array
    is scanned (cheap next to the multiply it can eliminate).
    """
    if plan is not None and weights is plan.edge_weight:
        return plan.graph.has_unit_weights
    return weights.size == 0 or bool(np.all(weights == 1.0))


def check_edge_index(edge_index: np.ndarray, num_nodes: int) -> np.ndarray:
    """Validate and normalise an edge-index array."""
    array = np.asarray(edge_index, dtype=np.int64)
    if array.ndim != 2 or array.shape[0] != 2:
        raise ShapeError(f"edge_index must have shape (2, E), got {array.shape}")
    if array.size and (array.min() < 0 or array.max() >= num_nodes):
        raise ShapeError("edge_index endpoints out of range")
    return array


def add_self_loops(
    edge_index: np.ndarray,
    edge_weight: np.ndarray,
    num_nodes: int,
    *,
    loop_weight: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Append a self-loop to every node (GCN's renormalisation trick)."""
    loops = np.arange(num_nodes, dtype=np.int64)
    new_index = np.concatenate([edge_index, np.stack([loops, loops])], axis=1)
    new_weight = np.concatenate(
        [np.asarray(edge_weight, dtype=np.float64), np.full(num_nodes, loop_weight)]
    )
    return new_index, new_weight


def inverse_in_degree(targets: np.ndarray, num_nodes: int) -> np.ndarray:
    """``(N, 1)`` column of ``1 / in-degree`` (1 for nodes with no in-edges)."""
    degree = np.bincount(targets, minlength=num_nodes).astype(np.float64)
    degree[degree == 0] = 1.0
    return 1.0 / degree.reshape(-1, 1)


def aggregate_neighbors(
    x: Tensor,
    edge_index: np.ndarray,
    num_nodes: int,
    *,
    edge_weight: np.ndarray | None = None,
    reduce: str = "sum",
    plan=None,
    plan_key: str = "base",
) -> Tensor:
    """Aggregate source-node features onto targets.

    ``out[v] = reduce_{(u, v) in E} w_uv * x[u]``.

    Args:
        x: ``(N, d)`` node feature tensor.
        edge_index: ``(2, E)`` source/target array.
        num_nodes: N.
        edge_weight: optional ``(E,)`` multiplicative weights.
        reduce: ``"sum"`` or ``"mean"`` (mean divides by in-degree,
            counting only present edges; isolated nodes stay zero).
        plan: optional :class:`repro.core.compute_plan.ComputePlan` holding
            build-once derived data (validated edges, in-degrees, scatter
            indices).  The plan changes nothing numerically — only how
            often the static arrays are rebuilt.
        plan_key: identifies the edge set within the plan.  Callers passing
            anything other than the plan's own edges (e.g. the GCN's
            self-loop-augmented set) must use a distinct key.
    """
    if plan is not None:
        edges = plan.memo(
            ("agg.edges", plan_key), lambda: check_edge_index(edge_index, num_nodes)
        )
    else:
        edges = check_edge_index(edge_index, num_nodes)
    sources, targets = edges[0], edges[1]
    gather_flat = None
    x_width = _row_width(x.shape)
    if (
        plan is not None
        and x.ndim > 1
        and x_width > kernels.COLUMN_WIDTH_THRESHOLD
    ):
        gather_flat = plan.memo(
            ("agg.gather_flat", plan_key, x_width),
            lambda: kernels.flat_scatter_index(sources, x_width),
        )
    messages = x.gather_rows(sources, flat_index=gather_flat)
    if edge_weight is not None:
        weights = np.asarray(edge_weight, dtype=np.float64)
        if weights.shape != (edges.shape[1],):
            raise ShapeError(
                f"edge_weight must have shape ({edges.shape[1]},), got {weights.shape}"
            )
        # Multiplying by an all-ones weight column is an exact no-op
        # (x * 1.0 is bit-identical to x); skipping it removes a forward
        # multiply and its two backward products per aggregation.
        if not unit_edge_weights(weights, plan):
            messages = messages * Tensor(weights.reshape(-1, 1))
    flat_index = None
    width = _row_width(messages.shape)
    if (
        plan is not None
        and messages.ndim > 1
        and width > kernels.COLUMN_WIDTH_THRESHOLD
    ):
        flat_index = plan.memo(
            ("agg.flat", plan_key, width),
            lambda: kernels.flat_scatter_index(targets, width),
        )
    aggregated = F.scatter_add_rows(messages, targets, num_nodes, flat_index=flat_index)
    if reduce == "sum":
        return aggregated
    if reduce == "mean":
        if plan is not None:
            inverse = plan.memo(
                ("agg.inv_degree", plan_key),
                lambda: inverse_in_degree(targets, num_nodes),
            )
        else:
            inverse = inverse_in_degree(targets, num_nodes)
        return aggregated * Tensor(inverse)
    raise ShapeError(f"reduce must be 'sum' or 'mean', got {reduce!r}")
