"""The fused training nodes against their composed oracles, byte for byte.

A GAT/GRAT layer's ``forward`` is one autograd node, and the batched loss
reduction (:func:`repro.core.loss.member_losses`) is another.  Each must
reproduce the composed chain it replaces (``tests/oracles.py``): the
output, every gradient, and — under an active per-example capture — every
capture-buffer row.  Every comparison is on ``tobytes()``, so a ``-0.0``
that turns into ``+0.0`` counts as a difference.

The attention layer's logits come from per-node scores.  The former pair
form of the same function (an ``(E, 2W)`` matrix of ``[x_src ∥ x_tgt]``
rows times ``a``) rounds differently, so it is checked within a relative
1e-9, capture rows included.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.compute_plan import BatchedComputePlan, ComputePlan
from repro.core.loss import PenaltyLossConfig, member_losses
from repro.gnn.layers import GATConv, GRATConv
from repro.graphs.graph import Graph
from repro.nn import kernels
from repro.nn.per_example import PerExampleCapture, capturing
from repro.nn.tensor import Tensor

from repro.gnn.inference import EdgePass

from tests.oracles import (
    reference_attention_forward,
    reference_member_losses,
    reference_pair_attention_forward,
)

#: Exact values that stress signed zeros, mixed in with arbitrary ones.
SPECIAL = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0])
VALUES = SPECIAL | st.floats(-3.0, 3.0, allow_nan=False)


@st.composite
def members(draw):
    """1-4 member graphs: single nodes, zero edges, self-loops, duplicate
    arcs, and unit or fractional weights."""
    graphs = []
    for _ in range(draw(st.integers(1, 4))):
        nodes = draw(st.integers(1, 6))
        node = st.integers(0, nodes - 1)
        edges = draw(st.lists(st.tuples(node, node), max_size=2 * nodes))
        weights = None
        if edges and draw(st.booleans()):
            weight = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.05, 1.0)
            weights = draw(st.lists(weight, min_size=len(edges), max_size=len(edges)))
        graphs.append(Graph(nodes, edges, weights, directed=True))
    return BatchedComputePlan([ComputePlan(graph) for graph in graphs])


def array(draw, shape) -> np.ndarray:
    size = int(np.prod(shape))
    return np.asarray(draw(st.lists(VALUES, min_size=size, max_size=size))).reshape(shape)


def backward_bytes(layer, forward, features, upstream, capture):
    """Output, input gradient and parameter gradients (or capture rows)."""
    layer.zero_grad()
    x = Tensor(features.copy(), requires_grad=True)
    if capture is None:
        out = forward(x)
        out.backward(upstream)
        # An edgeless layer leaves its attention vectors without a gradient.
        grads = [p.grad if p.grad is None else p.grad.tobytes() for p in layer.parameters()]
    else:
        with capturing(capture):
            out = forward(x)
            out.backward(upstream)
        rows = capture.gradient_matrix(layer.parameters())
        grads = [row.tobytes() for row in rows]
    return [out.data.tobytes(), x.grad.tobytes(), *grads]


class TestAttentionNode:
    @settings(deadline=None, max_examples=120)
    @given(
        union=members(),
        layer_type=st.sampled_from([GATConv, GRATConv]),
        heads=st.sampled_from([1, 2, 4]),
        head_dim=st.sampled_from([1, 2, 3, 5]),
        weighted=st.booleans(),
        captured=st.booleans(),
        planned=st.booleans(),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_matches_the_composed_chain(
        self, union, layer_type, heads, head_dim, weighted, captured, planned, seed, data
    ):
        layer = layer_type(3, heads * head_dim, heads=heads, rng=seed)
        features = array(data.draw, (union.num_nodes, 3))
        upstream = array(data.draw, (union.num_nodes, heads * head_dim))
        edge_index = union.edge_index
        edge_weight = union.edge_weight if weighted else None
        plan = union if planned else None

        def capture():
            if not captured:
                return None
            return PerExampleCapture(union.node_bounds)

        fused = backward_bytes(
            layer,
            lambda x: layer(x, edge_index, edge_weight, plan=plan),
            features,
            upstream,
            capture(),
        )
        composed = backward_bytes(
            layer,
            lambda x: reference_attention_forward(layer, x, edge_index, edge_weight),
            features,
            upstream,
            capture(),
        )
        assert fused == composed

    def test_layer_is_one_node(self):
        layer = GRATConv(3, 4, heads=2, rng=0)
        x = Tensor(np.ones((3, 3)), requires_grad=True)
        out = layer(x, np.array([[0, 1, 2], [1, 2, 0]]), None)
        assert out._parents == (x, layer.linear.weight, *layer.attentions)

    def test_infer_runs_the_same_core(self):
        layer = GATConv(3, 6, heads=2, rng=1)
        x = np.random.default_rng(0).normal(size=(4, 3))
        edges = np.array([[0, 0, 1, 3, 3], [1, 2, 2, 0, 3]])
        forward = layer(Tensor(x), edges, np.array([0.5, 1.0, 0.2, 1.0, 0.7]))
        inferred = layer.infer(x, edges, np.array([0.5, 1.0, 0.2, 1.0, 0.7]))
        assert inferred.tobytes() == forward.data.tobytes()

    @pytest.mark.parametrize("heads", [1, 2])
    def test_infer_ignores_an_active_capture(self, heads, monkeypatch):
        # A capture whose bounds match the graph, as a trainer in another
        # thread could hold, must not turn inference products segmented.
        layer = GRATConv(3, 4, heads=heads, rng=2)
        x = np.random.default_rng(1).normal(size=(4, 3))
        edges = np.array([[0, 1, 2, 3], [1, 0, 3, 2]])
        expected = layer.infer(x, edges)

        def segmented(*args, **kwargs):
            raise AssertionError("inference read the per-example capture")

        monkeypatch.setattr(kernels, "segment_matmul", segmented)
        with capturing(PerExampleCapture(np.array([0, 2, 4]))):
            inferred = layer.infer(x, edges)
        assert inferred.tobytes() == expected.tobytes()


#: Explicit cases for both oracles: (name, member graphs).  Isolated nodes
#: (3 and 4 in the first), an edgeless member, repeated arcs and self-loops.
CASES = {
    "isolated nodes": [Graph(5, [(0, 1), (1, 2), (2, 0), (0, 2)], directed=True)],
    "edgeless": [Graph(3, [], directed=True)],
    "union with an edgeless member": [
        Graph(4, [(0, 1), (1, 1), (1, 2), (2, 1), (0, 1)], directed=True),
        Graph(2, [], directed=True),
        Graph(3, [(2, 0), (0, 1)], directed=True),
    ],
}


def case_inputs(name, weighted, width):
    """The union plan of a case, its weights, features and upstream gradient."""
    graphs = CASES[name]
    if weighted:
        rng = np.random.default_rng(3)
        graphs = [
            Graph(g.num_nodes, g.edge_index().T, rng.uniform(0.1, 1.0, g.num_edges), directed=True)
            for g in graphs
        ]
    union = BatchedComputePlan([ComputePlan(graph) for graph in graphs])
    rng = np.random.default_rng(len(name) + width)
    features = rng.normal(size=(union.num_nodes, 3))
    upstream = rng.normal(size=(union.num_nodes, width))
    return union, union.edge_weight if weighted else None, features, upstream


def assert_close(actual: np.ndarray, expected: np.ndarray) -> None:
    """Within 1e-9 of ``expected``, relative to its largest entry."""
    scale = max(float(np.abs(expected).max(initial=0.0)), 1e-300)
    np.testing.assert_allclose(actual, expected, rtol=1e-9, atol=1e-9 * scale)


ATTENTION_GRID = pytest.mark.parametrize(
    "layer_type, heads, weighted, name",
    [
        (layer_type, heads, weighted, name)
        for layer_type in (GATConv, GRATConv)
        for heads in (1, 2)
        for weighted in (False, True)
        for name in CASES
    ],
)


class TestAttentionOracles:
    @ATTENTION_GRID
    def test_node_form_chain_is_the_byte_oracle(self, layer_type, heads, weighted, name):
        layer = layer_type(3, 2 * heads, heads=heads, rng=11)
        union, edge_weight, features, upstream = case_inputs(name, weighted, 2 * heads)
        for capture in (None, PerExampleCapture(union.node_bounds)):
            fused = backward_bytes(
                layer,
                lambda x: layer(x, union.edge_index, edge_weight, plan=union),
                features,
                upstream,
                capture,
            )
            if capture is not None:
                capture = PerExampleCapture(union.node_bounds)
            composed = backward_bytes(
                layer,
                lambda x: reference_attention_forward(layer, x, union.edge_index, edge_weight),
                features,
                upstream,
                capture,
            )
            assert fused == composed

    @ATTENTION_GRID
    def test_pair_form_agrees_within_tolerance(self, layer_type, heads, weighted, name):
        layer = layer_type(3, 4 * heads, heads=heads, rng=12)
        union, edge_weight, features, upstream = case_inputs(name, weighted, 4 * heads)

        def gradients(forward, x_values, g_values):
            layer.zero_grad()
            x = Tensor(x_values.copy(), requires_grad=True)
            out = forward(x)
            out.backward(g_values)
            grads = [p.grad if p.grad is not None else np.zeros_like(p.data)
                     for p in layer.parameters()]
            return [out.data, x.grad, *grads]

        node = gradients(
            lambda x: layer(x, union.edge_index, edge_weight), features, upstream
        )
        pair = gradients(
            lambda x: reference_pair_attention_forward(layer, x, union.edge_index, edge_weight),
            features,
            upstream,
        )
        for actual, expected in zip(node, pair):
            assert_close(actual, expected)

        # Capture rows against the pair form run one member at a time.
        layer.zero_grad()
        capture = PerExampleCapture(union.node_bounds)
        with capturing(capture):
            out = layer(Tensor(features.copy(), requires_grad=True), union.edge_index,
                        edge_weight, plan=union)
            out.backward(upstream)
        rows = capture.gradient_matrix(layer.parameters())
        nodes, arcs = union.node_bounds, union.edge_bounds
        for k in range(len(union.plans)):
            member = slice(int(nodes[k]), int(nodes[k + 1]))
            edges = union.edge_index[:, int(arcs[k]) : int(arcs[k + 1])] - nodes[k]
            weights = None if edge_weight is None else edge_weight[int(arcs[k]) : int(arcs[k + 1])]
            expected = gradients(
                lambda x: reference_pair_attention_forward(layer, x, edges, weights),
                features[member],
                upstream[member],
            )[2:]
            assert_close(rows[k], np.concatenate([g.reshape(-1) for g in expected]))

    @pytest.mark.parametrize("heads", [1, 2])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_training_forward_saves_no_edge_by_width_array(self, heads, weighted):
        graph = Graph(6, [(u, v) for u in range(6) for v in range(6) if u != v], directed=True)
        num_edges = graph.num_edges
        layer = GRATConv(3, 8, heads=heads, rng=13)
        weights = np.linspace(0.1, 0.9, num_edges) if weighted else None
        saved: list = []
        layer._attend(np.ones((6, 3)), EdgePass(graph.edge_index(), weights, 6), saved)
        arrays = [item for entry in saved for item in (entry if isinstance(entry, tuple) else (entry,))]
        assert len(saved) == 1 + heads
        assert all(a.shape == (num_edges,) for entry in saved[1:] for a in entry)
        assert not [a.shape for a in arrays if a.shape[0] == num_edges and a.ndim > 1]


class TestLossNode:
    @settings(deadline=None, max_examples=120)
    @given(
        sizes=st.lists(st.integers(1, 5), min_size=1, max_size=5),
        penalty=st.sampled_from([0.0, 0.5, 1.3]),
        normalize=st.booleans(),
        data=st.data(),
    )
    def test_matches_one_slice_chain_per_member(self, sizes, penalty, normalize, data):
        bounds = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
        total = int(bounds[-1])
        config = PenaltyLossConfig(penalty=penalty, normalize=normalize)
        survival_values = array(data.draw, (total, 1))
        seed_values = array(data.draw, (total,))
        upstream = array(data.draw, (len(sizes),))

        def run(reduce):
            survival = Tensor(survival_values.copy(), requires_grad=True)
            seeds = Tensor(seed_values.copy(), requires_grad=True)
            losses = reduce(survival, seeds)
            return losses, survival, seeds

        fused, survival, seeds = run(
            lambda s, p: member_losses(s, p, bounds, config)
        )
        fused.backward(upstream)
        composed, oracle_survival, oracle_seeds = run(
            lambda s, p: reference_member_losses(s, p, bounds, config)
        )
        root = composed[0] * upstream[0]
        for loss, weight in zip(composed[1:], upstream[1:]):
            root = root + loss * weight
        root.backward()

        assert fused.data.tobytes() == np.array([l.data for l in composed]).tobytes()
        assert survival.grad.tobytes() == oracle_survival.grad.tobytes()
        assert seeds.grad.tobytes() == oracle_seeds.grad.tobytes()

    def test_one_member_keeps_negative_zero_and_two_do_not(self):
        config = PenaltyLossConfig(penalty=0.0, normalize=False)
        for bounds, expected in (([0, 2], "-0.0"), ([0, 1, 2], "0.0")):
            survival = Tensor(np.ones((2, 1)), requires_grad=True)
            seeds = Tensor(np.ones(2), requires_grad=True)
            losses = member_losses(survival, seeds, np.array(bounds), config)
            losses.backward(-np.ones(losses.shape))
            assert [repr(float(v)) for v in seeds.grad] == [expected] * 2
