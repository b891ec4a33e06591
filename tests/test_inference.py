"""The inference forward against its autograd oracle, byte for byte.

``GNN.infer`` (what ``score_nodes`` runs) and every layer's ``infer`` must
replay ``forward``'s floating-point operations exactly.  Every comparison
is on ``tobytes()``, so a ``-0.0`` that turns into ``+0.0`` counts as a
difference, and so does a NaN with another payload.
"""

from __future__ import annotations

import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.compute_plan import ComputePlan
from repro.core.seed_selection import score_nodes
from repro.gnn import inference
from repro.gnn.features import degree_features
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

@settings(max_examples=150, deadline=None)
@given(model=models(), graph=graphs(), seed=feature_seeds)
def test_score_nodes_is_byte_equal_to_the_autograd_forward(model, graph, seed):
    features = features_for(model, graph, seed)
    expected = reference_score_nodes(model, graph, features=features).tobytes()
    assert score_nodes(model, graph, features=features).tobytes() == expected


@settings(max_examples=100, deadline=None)
@given(model=models(), graph=graphs(), seed=feature_seeds)
def test_each_layer_infer_is_byte_equal_to_its_forward(model, graph, seed):
    hidden = features_for(model, graph, seed)
    edge_index, edge_weight = graph.edge_index(), graph.edge_arrays()[2]
    for conv in model.convs:
        with no_grad():
            expected = conv(Tensor(hidden), edge_index, edge_weight).data
        inferred = conv.infer(hidden, edge_index, edge_weight)
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
def test_scores_across_graphs_that_grow_and_shrink(model, sequence):
    results = [score_nodes(model, graph) for graph in sequence]
    # Earlier results must not alias arrays that later calls overwrote.
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
    assert score_nodes(model, graph).tobytes() == expected


@pytest.mark.parametrize("heads, keys", [(1, 0), (2, 1)])
def test_single_head_plan_keeps_one_target_scatter_index(heads, keys):
    """One head scatters through the fused gather–scatter matrix alone;
    several heads scatter their messages through the plain by-target
    matrix.  Either way the forward builds one target scatter structure."""
    graph = Graph(8, [(u, (u + 1) % 8) for u in range(8)] + [(0, 4), (4, 0)])
    plan = ComputePlan(graph)
    model = build_gnn("grat", hidden_features=12, attention_heads=heads, rng=5)
    model(Tensor(plan.features(5)), plan.edge_index, plan.edge_weight, plan=plan)
    plain = ("scatter_matrix", "target", None) in plan._memo
    fused = ("scatter_matrix", "target", "source") in plan._memo
    assert (int(plain), int(fused)) == (keys, 1 - keys)


def _ring(num_nodes: int, chords: int = 0) -> Graph:
    arcs = [(u, (u + 1) % num_nodes) for u in range(num_nodes)]
    arcs += [(u, (u * 7 + 3) % num_nodes) for u in range(chords)]
    return Graph(num_nodes, arcs)


class TestNodeScratch:
    """``GNN.infer`` writes its node-rowed arrays into the process's node
    scratch when it can take it, and fresh arrays when it cannot; the
    scores are the same bytes either way."""

    def _hold_scratch(self):
        """Hold the scratch in another thread until the returned event is set."""
        held, release = threading.Event(), threading.Event()

        def holder():
            with inference.node_scratch() as scratch:
                assert scratch is not None
                held.set()
                release.wait(30)

        thread = threading.Thread(target=holder)
        thread.start()
        assert held.wait(30)
        return thread, release

    @pytest.mark.parametrize("kind, heads", [("grat", 1), ("gat", 1), ("grat", 2)])
    def test_scores_are_the_same_while_another_thread_holds_the_scratch(self, kind, heads):
        # Two graphs of one size: had the second's forward written the
        # scratch, its buffers would no longer hold the first's bytes.
        first, second = _ring(40, chords=25), _ring(40, chords=9)
        model = build_gnn(kind, hidden_features=8, attention_heads=heads, rng=3)
        expected = reference_score_nodes(model, second).tobytes()
        score_nodes(model, first)  # scratch taken
        buffers = {name: (id(b), b.tobytes()) for name, b in inference._SCRATCH.items()}
        thread, release = self._hold_scratch()
        try:
            assert score_nodes(model, second).tobytes() == expected  # fresh arrays
            after = {name: (id(b), b.tobytes()) for name, b in inference._SCRATCH.items()}
            assert after == buffers
        finally:
            release.set()
            thread.join(30)
        assert not thread.is_alive()
        assert score_nodes(model, second).tobytes() == expected

    def test_threads_score_different_graphs_at_once(self):
        # More threads than cores, switching often: whichever holds the
        # scratch, every thread's scores stay its own graph's bytes.
        # One size, so a thread's buffers have the shapes another's need.
        model = build_gnn("grat", hidden_features=16, rng=7)
        graphs = [_ring(300, chords=chords) for chords in (0, 40, 150, 300)]
        expected = [reference_score_nodes(model, graph).tobytes() for graph in graphs]
        start, failures = threading.Barrier(len(graphs)), []

        def score(index):
            start.wait(30)
            for _ in range(25):
                if score_nodes(model, graphs[index]).tobytes() != expected[index]:
                    failures.append(index)

        threads = [threading.Thread(target=score, args=(i,)) for i in range(len(graphs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []

    def test_interleaved_graph_sizes_reuse_and_replace_the_buffers(self):
        model = build_gnn("grat", hidden_features=8, rng=5)
        graphs = [_ring(30, chords=10), _ring(12, chords=12), _ring(30, chords=10), _ring(50)]
        scores = [score_nodes(model, graph) for graph in graphs + graphs[::-1]]
        for graph, result in zip(graphs + graphs[::-1], scores):
            assert result.tobytes() == reference_score_nodes(model, graph).tobytes()
        # The last graph scored set every buffer's shape.
        shapes = {buffer.shape for buffer in inference._SCRATCH.values()}
        assert shapes == {(30, 8)}

    def test_a_warm_forward_allocates_no_node_rowed_block(self):
        # A sparse graph: one (N, W) block dwarfs every edge-length array.
        graph, width = _ring(4000), 32
        model = build_gnn("grat", hidden_features=width, rng=9)
        features = degree_features(graph, dim=model.config.in_features)
        edge_index = graph.edge_index()
        expected = model.infer(features, edge_index).tobytes()
        tracemalloc.start()
        try:
            scores = model.infer(features, edge_index)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert scores.tobytes() == expected
        assert peak < graph.num_nodes * width * 8, peak
