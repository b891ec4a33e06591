"""The inference forward against its autograd oracle, byte for byte.

``GNN.infer`` (what ``score_nodes`` runs) and every layer's ``infer`` must
replay ``forward``'s floating-point operations exactly.  Every comparison
is on ``tobytes()``, so a ``-0.0`` that turns into ``+0.0`` counts as a
difference, and so does a NaN with another payload.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.compute_plan import ComputePlan
from repro.core.seed_selection import score_nodes
from repro.gnn.features import degree_features
from repro.gnn.inference import InferenceWorkspace
from repro.gnn.models import build_gnn
from repro.graphs.graph import Graph
from repro.nn.tensor import Tensor, no_grad

from tests.oracles import reference_score_nodes

ARCHITECTURES = ["gcn", "sage", "gat", "grat", "gin"]


@st.composite
def graphs(draw, max_nodes: int = 12) -> Graph:
    """Directed graphs with repeated arcs, self-loops, isolated nodes, and
    unit or non-unit weights (exact 0.0 and 1.0 included)."""
    num_nodes = draw(st.integers(1, max_nodes))
    node = st.integers(0, num_nodes - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=3 * num_nodes))
    weights = None
    if draw(st.booleans()):
        weight = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)
        weights = draw(st.lists(weight, min_size=len(edges), max_size=len(edges)))
    return Graph(num_nodes, edges, weights)


@st.composite
def models(draw):
    """Any architecture; heads 1 or 2 on the attention ones; widths on both
    sides of the scatter kernels' one-column/CSR switch (two heads of
    width 2 give one-column heads); optionally every parameter redrawn
    (non-zero biases, GIN's ω, mixed signs)."""
    kind = draw(st.sampled_from(ARCHITECTURES))
    heads = draw(st.sampled_from([1, 2])) if kind in ("gat", "grat") else 1
    model = build_gnn(
        kind,
        in_features=draw(st.sampled_from([3, 5])),
        hidden_features=draw(st.sampled_from([2, 4, 6, 8, 12])),
        num_layers=draw(st.integers(1, 3)),
        attention_heads=heads,
        rng=draw(st.integers(0, 2**16)),
    )
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        model.load_parameter_vector(rng.normal(size=model.num_parameters()))
    return model


def features_for(model, graph: Graph, seed: int | None) -> np.ndarray:
    """Degree features, or signed noise with exact ±0.0 entries."""
    dim = model.config.in_features
    if seed is None:
        return degree_features(graph, dim=dim)
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(graph.num_nodes, dim))
    features[rng.random(features.shape) < 0.2] = 0.0
    features[rng.random(features.shape) < 0.1] = -0.0
    return features


feature_seeds = st.none() | st.integers(0, 2**16)

#: Shared by every example of the differential test, so it also sees one
#: workspace carried across graphs of every drawn size.
SHARED = InferenceWorkspace()


@settings(max_examples=150, deadline=None)
@given(model=models(), graph=graphs(), seed=feature_seeds)
def test_score_nodes_is_byte_equal_to_the_autograd_forward(model, graph, seed):
    features = features_for(model, graph, seed)
    expected = reference_score_nodes(model, graph, features=features).tobytes()
    assert score_nodes(model, graph, features=features).tobytes() == expected
    reused = score_nodes(model, graph, features=features, workspace=SHARED)
    assert reused.tobytes() == expected


@settings(max_examples=100, deadline=None)
@given(model=models(), graph=graphs(), seed=feature_seeds)
def test_each_layer_infer_is_byte_equal_to_its_forward(model, graph, seed):
    hidden = features_for(model, graph, seed)
    edge_index, edge_weight = graph.edge_index(), graph.edge_arrays()[2]
    workspace = InferenceWorkspace()
    for conv in model.convs:
        with no_grad():
            expected = conv(Tensor(hidden), edge_index, edge_weight).data
        inferred = conv.infer(hidden, edge_index, edge_weight, workspace=workspace)
        assert inferred.tobytes() == expected.tobytes(), type(conv).__name__
        assert conv.infer(hidden, edge_index).tobytes() == (
            conv(Tensor(hidden), edge_index).data.tobytes()
        )
        hidden = expected * (expected > 0)


@settings(max_examples=40, deadline=None)
@given(
    model=models(),
    sequence=st.lists(graphs(max_nodes=24), min_size=3, max_size=6),
)
def test_one_workspace_across_graphs_that_grow_and_shrink(model, sequence):
    workspace = InferenceWorkspace()
    results = [score_nodes(model, graph, workspace=workspace) for graph in sequence]
    # Earlier results must not alias buffers that later calls overwrote.
    for graph, scores in zip(sequence, results):
        assert scores.tobytes() == reference_score_nodes(model, graph).tobytes()


EDGE_CASES = {
    "no edges": Graph(5, []),
    "one node, no edges": Graph(1, []),
    "isolated nodes": Graph(6, [(0, 1), (1, 0), (1, 2)]),
    "weighted, isolated nodes": Graph(6, [(0, 1), (2, 1), (1, 1)], [0.5, 0.0, 0.25]),
    "self-loop only": Graph(3, [(2, 2)]),
}


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
@pytest.mark.parametrize(
    "kind, heads",
    [(kind, 1) for kind in ARCHITECTURES] + [("gat", 2), ("grat", 2)],
)
def test_degenerate_graphs(kind, heads, case):
    graph = EDGE_CASES[case]
    model = build_gnn(kind, hidden_features=8, num_layers=3, attention_heads=heads, rng=11)
    expected = reference_score_nodes(model, graph).tobytes()
    assert score_nodes(model, graph, workspace=InferenceWorkspace()).tobytes() == expected


class TestWorkspace:
    def test_buffers_grow_only(self):
        workspace = InferenceWorkspace()
        large = workspace.array("messages", (100, 8))
        small = workspace.array("messages", (10, 8))
        assert small.flags.c_contiguous and small.shape == (10, 8)
        assert np.shares_memory(small, large)
        grown = workspace.array("messages", (200, 8))
        assert not np.shares_memory(grown, large)

    def test_named_buffers_are_distinct(self):
        workspace = InferenceWorkspace()
        first = workspace.array("pair", (4, 4))
        second = workspace.array("messages", (4, 4))
        index = workspace.array("pair_index", (4, 2), np.int64)
        assert not np.shares_memory(first, second)
        assert index.dtype == np.int64

    def test_a_warm_workspace_does_not_reallocate(self):
        model = build_gnn("grat", hidden_features=8, num_layers=3, rng=2)
        graph = Graph(30, [(u, (u * 7 + 3) % 30) for u in range(30)])
        workspace = InferenceWorkspace()
        score_nodes(model, graph, workspace=workspace)
        buffers = dict(workspace._buffers)
        smaller = Graph(20, [(u, (u * 3 + 1) % 20) for u in range(20)])
        score_nodes(model, smaller, workspace=workspace)
        assert workspace._buffers.keys() == buffers.keys()
        assert all(workspace._buffers[name] is buffer for name, buffer in buffers.items())

    def test_a_few_added_edges_do_not_reallocate(self):
        # Reallocating multi-MB buffers raises glibc's mmap threshold and
        # with it the serving process's resident memory.
        model = build_gnn("grat", hidden_features=8, num_layers=3, rng=2)
        edges = [(u, (u * 7 + 3) % 30) for u in range(30)]
        workspace = InferenceWorkspace()
        score_nodes(model, Graph(30, edges), workspace=workspace)
        buffers = dict(workspace._buffers)
        score_nodes(model, Graph(30, edges + [(0, 29), (29, 1)]), workspace=workspace)
        assert all(workspace._buffers[name] is buffer for name, buffer in buffers.items())


@pytest.mark.parametrize("heads, keys", [(1, 0), (2, 1)])
def test_single_head_plan_keeps_one_target_scatter_index(heads, keys):
    """One head scatters through the fused gather–scatter matrix alone;
    several heads scatter their messages through the plain by-target
    matrix.  Either way the forward builds one target scatter structure."""
    graph = Graph(8, [(u, (u + 1) % 8) for u in range(8)] + [(0, 4), (4, 0)])
    plan = ComputePlan(graph)
    model = build_gnn("grat", hidden_features=12, attention_heads=heads, rng=5)
    model(Tensor(plan.features(5)), plan.edge_index, plan.edge_weight, plan=plan)
    plain = ("scatter_matrix", "target") in plan._memo
    fused = ("scatter_matrix", "source", "target") in plan._memo
    assert (int(plain), int(fused)) == (keys, 1 - keys)
