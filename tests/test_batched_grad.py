"""Property tests for the vectorized multi-subgraph gradient path.

Hypothesis drives random batches of small subgraphs — mixed sizes,
including single-node and zero-edge members, unit and non-unit edge
weights, duplicate members — through both gradient implementations and
asserts the block-diagonal union path reproduces the per-subgraph loop
**byte for byte**: gradients, losses, and raw pre-clip norms.  The same
file unit-tests the new segment kernels and the capture machinery's
failure mode (a parameter gradient reaching a non-intercepted op must
raise, never silently mix examples).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.batched_grad import batched_subgraph_gradients, subgraph_gradient
from repro.core.compute_plan import BatchedComputePlan, ComputePlan
from repro.core.loss import PenaltyLossConfig
from repro.errors import AutogradError, TrainingError
from repro.gnn.models import build_gnn
from repro.graphs.graph import Graph
from repro.nn import kernels
from repro.nn.module import Parameter
from repro.nn.per_example import PerExampleCapture, capturing
from repro.nn.tensor import Tensor


class _Plans:
    """Minimal stand-in for ComputePlanCache over ad-hoc graphs."""

    def __init__(self, graphs):
        self._plans = [ComputePlan(graph) for graph in graphs]

    def plan(self, index):
        return self._plans[int(index)]


@st.composite
def subgraph_batches(draw):
    """A batch of 1-4 small graphs with adversarial shapes.

    Sizes are deliberately mixed: singleton graphs, zero-edge graphs,
    self-loops, duplicate edges, and unit vs fractional edge weights all
    appear — each has broken a batching scheme somewhere before.
    """
    count = draw(st.integers(1, 4))
    graphs = []
    for _ in range(count):
        nodes = draw(st.integers(1, 9))
        num_edges = draw(st.integers(0, 2 * nodes))
        endpoints = st.integers(0, nodes - 1)
        edges = draw(
            st.lists(
                st.tuples(endpoints, endpoints),
                min_size=num_edges,
                max_size=num_edges,
            )
        )
        edge_array = np.array(edges, dtype=np.int64).reshape(-1, 2)
        if draw(st.booleans()) and num_edges:
            weights = draw(
                st.lists(
                    st.floats(0.05, 1.0, allow_nan=False),
                    min_size=num_edges,
                    max_size=num_edges,
                )
            )
            weights = np.asarray(weights)
        else:
            weights = None
        graphs.append(Graph(nodes, edge_array, weights, directed=True))
    indices = draw(
        st.lists(st.integers(0, count - 1), min_size=1, max_size=count + 2)
    )
    return graphs, indices


def assert_triples_identical(batched, serial):
    assert len(batched) == len(serial)
    for position, (b, s) in enumerate(zip(batched, serial)):
        assert b[0].tobytes() == s[0].tobytes(), f"gradient diverged at {position}"
        assert b[1] == s[1], f"loss diverged at {position}"
        assert b[2] == s[2], f"raw norm diverged at {position}"


class TestBatchedOracleEquivalence:
    @settings(deadline=None, max_examples=25)
    @given(batch=subgraph_batches(), kind=st.sampled_from(["gcn", "sage", "grat"]))
    def test_batched_matches_loop_byte_for_byte(self, batch, kind):
        graphs, indices = batch
        plans = _Plans(graphs)
        model = build_gnn(kind, hidden_features=4, num_layers=2, rng=0)
        loss = PenaltyLossConfig()
        serial = [
            subgraph_gradient(model, plans.plan(i), loss, 1.0) for i in indices
        ]
        batched = batched_subgraph_gradients(model, plans, indices, loss, 1.0)
        assert_triples_identical(batched, serial)

    @settings(deadline=None, max_examples=10)
    @given(batch=subgraph_batches())
    def test_unclipped_gat_matches_loop(self, batch):
        graphs, indices = batch
        plans = _Plans(graphs)
        model = build_gnn("gat", hidden_features=4, num_layers=2, rng=0)
        loss = PenaltyLossConfig()
        serial = [
            subgraph_gradient(model, plans.plan(i), loss, None) for i in indices
        ]
        batched = batched_subgraph_gradients(model, plans, indices, loss, None)
        assert_triples_identical(batched, serial)

    @settings(deadline=None, max_examples=10)
    @given(batch=subgraph_batches())
    def test_gin_epsilon_capture_matches_loop(self, batch):
        graphs, indices = batch
        plans = _Plans(graphs)
        model = build_gnn("gin", hidden_features=4, num_layers=2, rng=0)
        loss = PenaltyLossConfig(phi="one_minus_exp", normalize=False)
        serial = [
            subgraph_gradient(model, plans.plan(i), loss, 0.5) for i in indices
        ]
        batched = batched_subgraph_gradients(model, plans, indices, loss, 0.5)
        assert_triples_identical(batched, serial)

    def test_all_zero_edge_batch_falls_back_serially(self):
        graphs = [Graph(3, np.empty((0, 2), dtype=np.int64)) for _ in range(2)]
        plans = _Plans(graphs)
        model = build_gnn("grat", hidden_features=4, num_layers=2, rng=0)
        loss = PenaltyLossConfig()
        serial = [subgraph_gradient(model, plans.plan(i), loss, 1.0) for i in (0, 1)]
        batched = batched_subgraph_gradients(model, plans, [0, 1], loss, 1.0)
        assert_triples_identical(batched, serial)


class TestBatchedComputePlan:
    def test_union_layout(self):
        a = Graph(3, np.array([[0, 1], [1, 2]]))
        b = Graph(2, np.array([[0, 1]]))
        union = BatchedComputePlan([ComputePlan(a), ComputePlan(b)])
        assert union.num_nodes == 5
        assert list(union.node_bounds) == [0, 3, 5]
        assert list(union.edge_bounds) == [0, 2, 3]
        # b's edge (0 -> 1) lands offset by a's node count.
        assert union.edge_index[:, 2].tolist() == [3, 4]
        assert union.graph.has_unit_weights

    def test_union_features_concatenate_member_features(self):
        a = Graph(4, np.array([[0, 1], [2, 3], [1, 2]]))
        b = Graph(2, np.array([[1, 0]]))
        plan_a, plan_b = ComputePlan(a), ComputePlan(b)
        union = BatchedComputePlan([plan_a, plan_b])
        stacked = union.features(5)
        assert stacked.shape == (6, 5)
        # Degree features are per-graph normalised: recomputing them on the
        # union would change values, so the union must concatenate.
        assert stacked[:4].tobytes() == plan_a.features(5).tobytes()
        assert stacked[4:].tobytes() == plan_b.features(5).tobytes()

    def test_empty_batch_rejected(self):
        with pytest.raises(TrainingError):
            BatchedComputePlan([])


class TestSegmentKernels:
    @settings(deadline=None, max_examples=50)
    @given(sizes=st.lists(st.integers(0, 7), min_size=1, max_size=6))
    def test_segment_bounds_are_cumulative(self, sizes):
        bounds = kernels.segment_bounds(sizes)
        assert bounds[0] == 0
        assert list(np.diff(bounds)) == sizes

    @settings(deadline=None, max_examples=30)
    @given(
        sizes=st.lists(st.integers(0, 6), min_size=1, max_size=5),
        width=st.integers(1, 4),
        data=st.randoms(use_true_random=False),
    )
    def test_segment_matmul_t_matches_per_slice_products(self, sizes, width, data):
        rng = np.random.default_rng(data.randint(0, 2**32))
        bounds = kernels.segment_bounds(sizes)
        rows = int(bounds[-1])
        x = rng.standard_normal((rows, 3))
        grad = rng.standard_normal((rows, width))
        out = np.empty((len(sizes), 3, width))
        kernels.segment_matmul_t(x, grad, bounds, out)
        for k, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            expected = x[lo:hi].T @ grad[lo:hi]
            assert out[k].tobytes() == expected.tobytes()
        # accumulate=True adds on top of the assigned blocks.
        base = out.copy()
        kernels.segment_matmul_t(x, grad, bounds, out, accumulate=True)
        assert out.tobytes() == (base + base).tobytes()

    @settings(deadline=None, max_examples=30)
    @given(
        sizes=st.lists(st.integers(0, 9), min_size=1, max_size=5),
        data=st.randoms(use_true_random=False),
    )
    def test_segment_matmul_matches_per_slice_products(self, sizes, data):
        rng = np.random.default_rng(data.randint(0, 2**32))
        bounds = kernels.segment_bounds(sizes)
        rows = int(bounds[-1])
        x = rng.standard_normal((rows, 4))
        w = rng.standard_normal((4, 1))
        out = kernels.segment_matmul(x, w, bounds)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            assert out[lo:hi].tobytes() == (x[lo:hi] @ w).tobytes()


class TestCaptureGuard:
    def test_uncaptured_parameter_gradient_raises(self):
        parameter = Parameter(np.ones(3))
        capture = PerExampleCapture(np.array([0, 3]))
        with capturing(capture):
            out = (Tensor(np.arange(3.0)) * parameter).sum()
            with pytest.raises(AutogradError, match="per-example capture"):
                out.backward()

    def test_same_op_accumulates_normally_without_capture(self):
        parameter = Parameter(np.ones(3))
        out = (Tensor(np.arange(3.0)) * parameter).sum()
        out.backward()
        assert parameter.grad is not None

    def test_row_count_mismatch_raises(self):
        capture = PerExampleCapture(np.array([0, 2, 4]))
        parameter = Parameter(np.ones((3, 2)))
        with pytest.raises(AutogradError, match="rows"):
            capture.matmul_nodes(parameter, np.ones((5, 3)), np.ones((5, 2)))
