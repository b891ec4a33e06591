"""The five GNN convolution layers evaluated in the paper (Appendix G).

Every layer implements ``forward(x, edge_index, edge_weight) -> Tensor`` with
messages flowing source → target, and ``infer`` — the same computation on
plain arrays without autograd, byte-equal to ``forward`` (see
:mod:`repro.gnn.inference`).  GAT and GRAT run one array core for both,
and record it as a single autograd node with a hand-written backward.  The formulations follow the paper's
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

from repro.gnn.inference import EdgePass, relu_
from repro.gnn.message_passing import (
    add_self_loops,
    aggregate_neighbors,
    check_edge_index,
    inverse_in_degree,
)
from repro.nn import functional as F
from repro.nn import kernels, per_example
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
    ) -> np.ndarray:
        """:meth:`forward` on arrays, without autograd; byte-equal output."""
        features = np.asarray(x, dtype=np.float64)
        return self._infer(features, EdgePass(edge_index, edge_weight, features.shape[0]))

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
        def build():
            # One CSR product with the normalised weights as data, byte-equal
            # to forward's gather, multiply and scatter (see
            # EdgePass.aggregate).
            loop_edges, norm = _normalised_edges(
                edges.edge_index, edges.edge_weight, edges.num_nodes, self.self_loops
            )
            return kernels.scatter_matrix(
                loop_edges[1],
                edges.num_nodes,
                columns=loop_edges[0],
                num_columns=edges.num_nodes,
                data=norm,
            )

        return self.linear.infer(edges.memo(("gcn", self.self_loops), build) @ x)


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
        aggregated = edges.aggregate(x)
        aggregated *= edges.memo(
            "inv_degree", lambda: inverse_in_degree(edges.targets, edges.num_nodes)
        )
        return self.linear.infer(np.concatenate([x, aggregated], axis=1))


def _matmul(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Plain ``left @ right`` in :func:`per_example.capture_matmul`'s signature."""
    return left @ right


class _AttentionConv(_Conv):
    """Shared machinery for GAT/GRAT: only the softmax segment differs.

    Supports multi-head attention: each of the ``heads`` attention heads
    runs over its own ``out_features // heads`` slice of the transformed
    features and the head outputs are concatenated (the standard GAT
    arrangement).  ``out_features`` must be divisible by ``heads``.

    Appendix G's logit ``aᵀ[W h_u ∥ W h_v]`` of an edge ``u → v`` splits
    into two per-node scores: with ``a = [a_s; a_t]``, it is
    ``(x·a_s)[u] + (x·a_t)[v]``.  Each head computes the ``(N, 2)`` node
    scores ``x @ [a_s a_t]`` and gathers one per edge end, so no edge-rowed
    pair matrix is built, saved or differentiated; the backward reduces
    the logits' gradient onto sources and targets with two one-column
    segment sums.  The attention vector keeps its ``(2·head_dim, 1)``
    layout.

    The layer is one autograd node.  :meth:`_attend` is its arithmetic on
    arrays, shared with :meth:`infer`; :meth:`_attend_backward` replays, in
    their firing order, the floating-point operations of the composed
    chain of column-slice, node-score, edge-logit, softmax, gather and
    scatter nodes it stands for (``tests/oracles.py`` keeps that chain),
    so outputs and gradients are byte-identical to it, per-example capture
    rows included.  The forward saves only edge-length vectors; the
    backward gathers the source rows it needs again.
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
        inputs = Tensor._lift(x)
        edges = EdgePass(edge_index, edge_weight, inputs.shape[0], plan=plan)
        saved: list = []
        out = self._attend(inputs.data, edges, saved)
        return inputs._make(
            out,
            (inputs, self.linear.weight, *self.attentions),
            lambda grad: self._attend_backward(grad, inputs, edges, saved),
        )

    def _infer(self, x: np.ndarray, edges: EdgePass) -> np.ndarray:
        return self._attend(x, edges)

    def _segments(self, edges: EdgePass) -> np.ndarray:
        return edges.targets if self.normalize_over == "target" else edges.sources

    def _head_columns(self, values: np.ndarray, head: int) -> np.ndarray:
        """Head ``head``'s columns of ``values``: all of them with one head,
        else an exact contiguous copy of its slice."""
        if self.heads == 1:
            return values
        return np.ascontiguousarray(values[:, head * self.head_dim : (head + 1) * self.head_dim])

    def _score_matrix(self, attention: Parameter) -> np.ndarray:
        """``[a_s a_t]``: the ``(head_dim, 2)`` view of an attention vector."""
        return attention.data.reshape(2, self.head_dim).T

    def _attend(self, x: np.ndarray, edges: EdgePass, saved: list | None = None) -> np.ndarray:
        """The layer's output.  The transformed features, then per head the
        ``(alpha, exp, denominator, scale)`` its backward reads, go into
        ``saved``.

        On the training call (``saved`` given) under an active per-example
        capture, the node-rowed products run segment by segment, as the
        composed chain's do.  Inference never reads the capture, so its
        scores cannot depend on a trainer running in another thread.
        Inference writes the transformed features, and a single unweighted
        head's output, into ``edges``' node scratch when it has one: the
        same BLAS call and CSR loop, writing in place.
        """
        matmul = per_example.capture_matmul if saved is not None else _matmul
        num_nodes, num_edges = edges.num_nodes, edges.num_edges
        weight = self.linear.weight.data
        if saved is None:
            transformed = np.matmul(
                x, weight, out=edges.node_buffer("transformed", (num_nodes, weight.shape[1]))
            )
        else:
            transformed = matmul(x, weight)
        if num_edges == 0:
            return transformed * 0.0
        sources, targets = edges.sources, edges.targets
        segments = self._segments(edges)
        sort = edges.segment_sort(self.normalize_over)
        weight_column = edges.edge_weight_column()
        if saved is not None:
            saved.append(transformed)
        outputs = []
        for head, attention in enumerate(self.attentions):
            features = self._head_columns(transformed, head)
            node_scores = matmul(features, self._score_matrix(attention))
            scores = np.take(node_scores[:, 0], sources) + np.take(node_scores[:, 1], targets)
            logits, scale = kernels.leaky_relu(scores, self.negative_slope)
            alpha, exp, denominator = kernels.segment_softmax(
                logits, segments, num_nodes, sort=sort
            )
            if saved is not None:
                saved.append((alpha, exp, denominator, scale))
            # Drop these references before the output is written.  In
            # inference nothing else holds them, and the allocator then
            # reuses their blocks while warm.
            del node_scores, scores, logits, scale, exp, denominator
            if self.heads == 1 and weight_column is None:
                # One CSR product gathers, scales and scatters the source
                # rows: each term is the one rounding of x·α, then an add.
                matrix = edges.edge_matrix("target", "source", num_nodes)
                by_target = edges.segment_sort("target")
                out = edges.output_buffer(x, features.shape)  # None without scratch
                outputs.append(
                    kernels.gather_scale_scatter(features, alpha, matrix, by_target, out=out)
                )
                continue
            # (x·α)·w rounds twice, so weighted messages are written out,
            # and so are a head's, which scatter on their own.
            messages = np.take(features, sources, axis=0)
            np.multiply(messages, alpha.reshape(-1, 1), out=messages)
            if weight_column is not None:
                np.multiply(messages, weight_column, out=messages)
            outputs.append(edges.scatter(messages, "target", num_nodes))
        return outputs[0] if self.heads == 1 else np.concatenate(outputs, axis=1)

    def _attend_backward(
        self, grad: np.ndarray, inputs: Tensor, edges: EdgePass, saved: list
    ) -> None:
        capture = per_example.active_capture()
        weight = self.linear.weight
        if not saved:
            # The edgeless ``transformed * 0.0``.
            g_transformed = grad * 0.0
        else:
            g_transformed = self._scores_backward(grad, edges, saved, capture)
        if inputs.requires_grad:
            inputs._accumulate_owned(
                per_example.capture_matmul(g_transformed, weight.data.T)
            )
        if weight.requires_grad:
            if capture is not None:
                capture.matmul_nodes(weight, inputs.data, g_transformed)
            else:
                weight._accumulate_owned(inputs.data.T @ g_transformed)

    def _scores_backward(self, grad, edges, saved, capture) -> np.ndarray:
        """The transformed features' gradient; accumulates the attention
        vectors' on the way.  Heads fire last to first, as composed."""
        num_nodes, sources, targets = edges.num_nodes, edges.sources, edges.targets
        segments, weight_column = self._segments(edges), edges.edge_weight_column()
        transformed = saved[0]
        fused = self.heads == 1 and weight_column is None
        if self.heads > 1:
            # Each head's slice gradient lands in zeros, as the composed
            # slice nodes' do: every entry is ``0.0 + g``.
            g_transformed = np.zeros_like(transformed)
        for head in reversed(range(self.heads)):
            attention = self.attentions[head]
            alpha, exp, denominator, scale = saved[1 + head]
            features = self._head_columns(transformed, head)
            g_out = self._head_columns(grad, head)
            g_messages = np.take(g_out, targets, axis=0)
            if weight_column is not None:
                g_messages *= weight_column
            head_sources = np.take(features, sources, axis=0)
            g_alpha = (g_messages * head_sources).sum(axis=1)
            if fused:
                # alpha_e · g[target_e] scattered onto sources, one CSR product.
                g_features = kernels.gather_scale_scatter(
                    g_out,
                    alpha,
                    edges.edge_matrix("source", "target", num_nodes),
                    edges.segment_sort("source"),
                )
            else:
                g_messages *= alpha.reshape(-1, 1)
                g_features = edges.scatter(g_messages, "source", num_nodes)
            del g_messages, head_sources
            g_logits = kernels.segment_softmax_backward(
                g_alpha, exp, denominator, segments, num_nodes
            )
            g_scores = g_logits * scale
            # The node scores' gradient: each logit's on its source's
            # first column and its target's second.
            g_node_scores = np.empty((num_nodes, 2))
            g_node_scores[:, 0] = kernels.segment_sum(g_scores, sources, num_nodes)
            g_node_scores[:, 1] = kernels.segment_sum(g_scores, targets, num_nodes)
            if attention.requires_grad:
                if capture is not None:
                    capture.matmul_nodes(attention, g_node_scores, features)
                else:
                    attention._accumulate_owned(
                        (g_node_scores.T @ features).reshape(attention.data.shape)
                    )
            g_features += per_example.capture_matmul(
                g_node_scores, self._score_matrix(attention).T
            )
            if self.heads == 1:
                return g_features
            g_transformed[:, head * self.head_dim : (head + 1) * self.head_dim] += g_features
        return g_transformed


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
        combined = edges.aggregate(x)
        combined += x * (self.epsilon.data + np.asarray(1.0, dtype=np.float64))
        return self.mlp_out.infer(relu_(self.mlp_in.infer(combined)))
