"""The five GNN convolution layers evaluated in the paper (Appendix G).

Every layer implements ``forward(x, edge_index, edge_weight) -> Tensor`` with
messages flowing source → target, and ``infer`` — the same computation on
plain arrays without autograd, byte-equal to ``forward`` (see
:mod:`repro.gnn.inference`).  The formulations follow the paper's
Appendix G exactly:

* :class:`GCNConv` — symmetric degree-normalised sum (Eq. 31–32);
* :class:`SAGEConv` — mean aggregation concatenated with the self feature
  (Eq. 29–30);
* :class:`GATConv` — attention normalised over each *target's* incoming
  edges (Eq. 33–36);
* :class:`GRATConv` — the paper's preferred variant: the same attention
  scores normalised over each *source's* outgoing edges (Eq. 37–40), which
  penalises nodes whose coverage overlaps;
* :class:`GINConv` — MLP over ``(1 + ω)·h_v + Σ_u h_u`` (Eq. 41–42).
"""

from __future__ import annotations

import numpy as np

from repro.gnn.inference import EdgePass, InferenceWorkspace, attention_coefficients, relu_
from repro.gnn.message_passing import (
    add_self_loops,
    aggregate_neighbors,
    check_edge_index,
    inverse_in_degree,
    unit_edge_weights,
)
from repro.nn import functional as F
from repro.nn import kernels
from repro.nn.init import xavier_uniform
from repro.nn.module import Linear, Module, Parameter
from repro.nn.tensor import Tensor, concat


class _Conv(Module):
    """A message-passing layer with an autograd-free inference path."""

    def infer(
        self,
        x: np.ndarray,
        edge_index: np.ndarray,
        edge_weight: np.ndarray | None = None,
        *,
        workspace: InferenceWorkspace | None = None,
    ) -> np.ndarray:
        """:meth:`forward` on arrays, without autograd; byte-equal output.

        Large intermediates go into ``workspace`` (a fresh one when
        ``None``); the result never aliases it.
        """
        features = np.asarray(x, dtype=np.float64)
        return self._infer(
            features, EdgePass(edge_index, edge_weight, features.shape[0], workspace)
        )

    def _infer(self, x: np.ndarray, edges: EdgePass) -> np.ndarray:
        raise NotImplementedError


def _normalised_edges(
    edges: np.ndarray,
    edge_weight: np.ndarray | None,
    num_nodes: int,
    self_loops: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """GCN's edge set (with self-loops) and its ``w/sqrt(d_u d_v)`` weights."""
    weights = (
        np.ones(edges.shape[1])
        if edge_weight is None
        else np.asarray(edge_weight, dtype=np.float64)
    )
    if self_loops:
        edges, weights = add_self_loops(edges, weights, num_nodes)
    sources, targets = edges[0], edges[1]
    degree = np.bincount(targets, weights=weights, minlength=num_nodes)
    degree_source = np.bincount(sources, weights=weights, minlength=num_nodes)
    inv_sqrt_in = 1.0 / np.sqrt(np.maximum(degree, 1e-12))
    inv_sqrt_out = 1.0 / np.sqrt(np.maximum(degree_source, 1e-12))
    norm = weights * inv_sqrt_out[sources] * inv_sqrt_in[targets]
    return edges, norm


class GCNConv(_Conv):
    """Graph convolution with symmetric ``1/sqrt(d_u d_v)`` normalisation."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        *,
        self_loops: bool = True,
        rng: int | np.random.Generator | None = None,
    ) -> None:
        self.linear = Linear(in_features, out_features, rng=rng)
        self.self_loops = bool(self_loops)

    def forward(
        self,
        x: Tensor,
        edge_index: np.ndarray,
        edge_weight: np.ndarray | None = None,
        *,
        plan=None,
    ) -> Tensor:
        num_nodes = x.shape[0]

        def build_normalised_edges() -> tuple[np.ndarray, np.ndarray]:
            return _normalised_edges(
                check_edge_index(edge_index, num_nodes),
                edge_weight,
                num_nodes,
                self.self_loops,
            )

        # Edges and weights are static per subgraph, so the self-loop
        # augmentation and symmetric normalisation are plan-cacheable; every
        # GCN layer of a stack shares the same entry.
        if plan is not None:
            edges, norm = plan.memo(
                ("gcn.norm", self.self_loops), build_normalised_edges
            )
        else:
            edges, norm = build_normalised_edges()
        aggregated = aggregate_neighbors(
            x,
            edges,
            num_nodes,
            edge_weight=norm,
            plan=plan,
            plan_key=f"gcn.loops={self.self_loops}",
        )
        return self.linear(aggregated)

    def _infer(self, x: np.ndarray, edges: EdgePass) -> np.ndarray:
        key = ("gcn", self.self_loops)

        def build() -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
            loop_edges, norm = _normalised_edges(
                edges.edge_index, edges.edge_weight, edges.num_nodes, self.self_loops
            )
            column = None if unit_edge_weights(norm) else norm.reshape(-1, 1)
            return loop_edges[0], loop_edges[1], column

        sources, targets, column = edges.memo(key, build)
        aggregated = edges.aggregate(
            x, key=key, sources=sources, targets=targets, weight_column=column
        )
        return self.linear.infer(aggregated)


class SAGEConv(_Conv):
    """GraphSAGE with mean aggregation and self/neighbour concatenation."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        *,
        rng: int | np.random.Generator | None = None,
    ) -> None:
        self.linear = Linear(2 * in_features, out_features, rng=rng)

    def forward(
        self,
        x: Tensor,
        edge_index: np.ndarray,
        edge_weight: np.ndarray | None = None,
        *,
        plan=None,
    ) -> Tensor:
        num_nodes = x.shape[0]
        aggregated = aggregate_neighbors(
            x, edge_index, num_nodes, edge_weight=edge_weight, reduce="mean", plan=plan
        )
        return self.linear(concat([x, aggregated], axis=1))

    def _infer(self, x: np.ndarray, edges: EdgePass) -> np.ndarray:
        aggregated = edges.aggregate(x, weight_column=edges.edge_weight_column())
        aggregated *= edges.memo(
            "inv_degree", lambda: inverse_in_degree(edges.targets, edges.num_nodes)
        )
        return self.linear.infer(np.concatenate([x, aggregated], axis=1))


def _column_selector(width: int, start: int, count: int) -> Tensor:
    """Constant 0/1 matrix selecting columns ``start .. start+count``.

    Column slicing as a matmul keeps the operation inside the autograd
    primitives (the gradient is the transposed scatter back into place).
    """
    selector = np.zeros((width, count))
    selector[np.arange(start, start + count), np.arange(count)] = 1.0
    return Tensor(selector)


class _AttentionConv(_Conv):
    """Shared machinery for GAT/GRAT: only the softmax segment differs.

    Supports multi-head attention: each of the ``heads`` attention heads
    runs over its own ``out_features // heads`` slice of the transformed
    features and the head outputs are concatenated (the standard GAT
    arrangement).  ``out_features`` must be divisible by ``heads``.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        *,
        heads: int = 1,
        negative_slope: float = 0.2,
        normalize_over: str = "target",
        rng: int | np.random.Generator | None = None,
    ) -> None:
        if normalize_over not in ("target", "source"):
            raise ValueError("normalize_over must be 'target' or 'source'")
        if heads < 1 or out_features % heads != 0:
            raise ValueError(
                f"out_features ({out_features}) must be divisible by heads ({heads})"
            )
        from repro.utils.rng import spawn_rngs

        rngs = spawn_rngs(rng, heads + 1)
        self.linear = Linear(in_features, out_features, bias=False, rng=rngs[0])
        self.heads = int(heads)
        self.head_dim = out_features // heads
        self.attentions = [
            Parameter(xavier_uniform((2 * self.head_dim, 1), rng=rngs[1 + h]))
            for h in range(heads)
        ]
        self.negative_slope = float(negative_slope)
        self.normalize_over = normalize_over

    @property
    def attention(self) -> Parameter:
        """The first head's attention vector (backward compatibility)."""
        return self.attentions[0]

    def forward(
        self,
        x: Tensor,
        edge_index: np.ndarray,
        edge_weight: np.ndarray | None = None,
        *,
        plan=None,
    ) -> Tensor:
        num_nodes = x.shape[0]
        if plan is not None:
            edges = plan.memo(
                ("agg.edges", "base"), lambda: check_edge_index(edge_index, num_nodes)
            )
        else:
            edges = check_edge_index(edge_index, num_nodes)
        if edges.shape[1] == 0:
            return self.linear(x) * 0.0
        sources, targets = edges[0], edges[1]

        transformed = self.linear(x)
        segments = targets if self.normalize_over == "target" else sources
        # The per-softmax-segment sort and the per-target scatter index are
        # pure functions of the edge set, shared by every attention layer.
        sort = None if plan is None else plan.segment_sort(self.normalize_over)
        weight_column = None
        if edge_weight is not None:
            weights = np.asarray(edge_weight, dtype=np.float64)
            # All-ones weights make the per-message multiply an exact no-op.
            if not unit_edge_weights(weights, plan):
                weight_column = Tensor(weights.reshape(-1, 1))
        # The gathers' backward pass scatters an E x out_features gradient
        # back per node; precompute its combined index once per edge
        # direction so every layer and iteration reuses it.
        width = transformed.shape[1]
        source_flat = target_flat = None
        if plan is not None and width > kernels.COLUMN_WIDTH_THRESHOLD:
            source_flat = plan.memo(
                ("gather.flat", "source", width),
                lambda: kernels.flat_scatter_index(sources, width),
            )
            target_flat = plan.memo(
                ("gather.flat", "target", width),
                lambda: kernels.flat_scatter_index(targets, width),
            )
        # The message scatter onto targets: a single head spans the full
        # width, so it shares the target gather's index.
        flat_index = target_flat
        if self.heads > 1:
            flat_index = None
            if plan is not None and self.head_dim > kernels.COLUMN_WIDTH_THRESHOLD:
                flat_index = plan.memo(
                    ("attn.flat", self.head_dim),
                    lambda: kernels.flat_scatter_index(targets, self.head_dim),
                )
        source_feats = transformed.gather_rows(sources, flat_index=source_flat)

        if self.heads == 1:
            # Single-head fast path: the column selector would be the
            # identity, and the gather/concat, matmul/leaky/reshape, and
            # multiply/scatter triples collapse into fused nodes — each
            # bit-identical to the composition it replaces.
            pair = F.concat_gather_rows(
                source_feats, transformed, targets, flat_index=target_flat
            )
            logits = F.edge_attention_logits(
                pair, self.attentions[0], self.negative_slope
            )
            alpha = F.segment_softmax(logits, segments, num_nodes, sort=sort)
            if weight_column is None:
                return F.scatter_weighted_rows(
                    source_feats, alpha, targets, num_nodes, flat_index=flat_index
                )
            messages = source_feats * alpha.reshape(-1, 1) * weight_column
            return F.scatter_add_rows(
                messages, targets, num_nodes, flat_index=flat_index
            )

        target_feats = transformed.gather_rows(targets, flat_index=target_flat)
        head_outputs = []
        for head, attention in enumerate(self.attentions):
            lo = head * self.head_dim
            selector = _column_selector(transformed.shape[1], lo, self.head_dim)
            head_sources = source_feats @ selector
            head_targets = target_feats @ selector
            pair = concat([head_sources, head_targets], axis=1)
            # Same fused node as the single-head path (bit-identical to the
            # composed matmul/leaky/reshape); it is also where per-example
            # capture intercepts the attention-vector reduction.
            logits = F.edge_attention_logits(pair, attention, self.negative_slope)
            alpha = F.segment_softmax(logits, segments, num_nodes, sort=sort)
            messages = head_sources * alpha.reshape(-1, 1)
            if weight_column is not None:
                messages = messages * weight_column
            head_outputs.append(
                F.scatter_add_rows(messages, targets, num_nodes, flat_index=flat_index)
            )
        return concat(head_outputs, axis=1)

    def _infer(self, x: np.ndarray, edges: EdgePass) -> np.ndarray:
        num_nodes, num_edges = x.shape[0], edges.num_edges
        transformed = self.linear.infer(x)
        if num_edges == 0:
            return transformed * 0.0
        segments = edges.targets if self.normalize_over == "target" else edges.sources
        sort = edges.segment_sort(self.normalize_over)
        weight_column = edges.edge_weight_column()
        width = transformed.shape[1]

        if self.heads == 1:
            # One gather fills both halves of every pair row; the source
            # half doubles as the gathered source features.
            pair = edges.gather(transformed, edges.pair_index(), "pair")
            pair = pair.reshape(num_edges, 2 * width)
            attention = self.attentions[0].data
            alpha = attention_coefficients(
                pair, attention, self.negative_slope, segments, num_nodes, sort
            )
            messages = edges.workspace.array("messages", (num_edges, width))
            np.multiply(pair[:, :width], alpha.reshape(-1, 1), out=messages)
            if weight_column is not None:
                np.multiply(messages, weight_column, out=messages)
            return edges.scatter_add(messages, edges.targets, "base")

        source_feats = edges.gather(transformed, edges.sources, "sources")
        target_feats = edges.gather(transformed, edges.targets, "targets")
        pair = edges.workspace.array("pair", (num_edges, 2 * self.head_dim))
        head_outputs = []
        for head, attention in enumerate(self.attentions):
            selector = _column_selector(width, head * self.head_dim, self.head_dim).data
            head_sources = source_feats @ selector
            np.concatenate([head_sources, target_feats @ selector], axis=1, out=pair)
            alpha = attention_coefficients(
                pair, attention.data, self.negative_slope, segments, num_nodes, sort
            )
            messages = np.multiply(head_sources, alpha.reshape(-1, 1), out=head_sources)
            if weight_column is not None:
                np.multiply(messages, weight_column, out=messages)
            head_outputs.append(edges.scatter_add(messages, edges.targets, "base"))
        return np.concatenate(head_outputs, axis=1)


class GATConv(_AttentionConv):
    """Graph attention with per-target normalisation (Veličković et al.)."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        *,
        heads: int = 1,
        negative_slope: float = 0.2,
        rng: int | np.random.Generator | None = None,
    ) -> None:
        super().__init__(
            in_features,
            out_features,
            heads=heads,
            negative_slope=negative_slope,
            normalize_over="target",
            rng=rng,
        )


class GRATConv(_AttentionConv):
    """GAT variant normalising attention at the *source* (FastCover's GRAT).

    Normalising over each source's successors means a node whose coverage
    overlaps other influential nodes receives a reduced reward — the
    property the paper credits for GRAT's edge on IM tasks.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        *,
        heads: int = 1,
        negative_slope: float = 0.2,
        rng: int | np.random.Generator | None = None,
    ) -> None:
        super().__init__(
            in_features,
            out_features,
            heads=heads,
            negative_slope=negative_slope,
            normalize_over="source",
            rng=rng,
        )


class GINConv(_Conv):
    """Graph isomorphism layer: ``MLP((1 + ω)·h_v + Σ_u h_u)``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        *,
        hidden_features: int | None = None,
        rng: int | np.random.Generator | None = None,
    ) -> None:
        hidden = hidden_features if hidden_features is not None else out_features
        from repro.utils.rng import spawn_rngs

        rng1, rng2 = spawn_rngs(rng, 2)
        self.mlp_in = Linear(in_features, hidden, rng=rng1)
        self.mlp_out = Linear(hidden, out_features, rng=rng2)
        self.epsilon = Parameter(np.zeros(1))  # the learnable ω

    def forward(
        self,
        x: Tensor,
        edge_index: np.ndarray,
        edge_weight: np.ndarray | None = None,
        *,
        plan=None,
    ) -> Tensor:
        num_nodes = x.shape[0]
        aggregated = aggregate_neighbors(
            x, edge_index, num_nodes, edge_weight=edge_weight, plan=plan
        )
        # Fused ``x * (1 + ω)`` node: bit-identical to the composed
        # add/multiply, and the capture-aware site for ω's per-example
        # gradient (``unbroadcast(grad * x)``), which generic interception
        # cannot attribute through the intermediate ``1 + ω`` tensor.
        combined = aggregated + F.scale_rows_one_plus(x, self.epsilon)
        return self.mlp_out(self.mlp_in(combined).relu())

    def _infer(self, x: np.ndarray, edges: EdgePass) -> np.ndarray:
        combined = edges.aggregate(x, weight_column=edges.edge_weight_column())
        combined += x * (self.epsilon.data + np.asarray(1.0, dtype=np.float64))
        return self.mlp_out.infer(relu_(self.mlp_in.infer(combined)))
