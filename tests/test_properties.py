"""Property-based tests (hypothesis) on the core invariants.

These cover the properties the privacy analysis depends on: clipping really
bounds norms, the dual-stage sampler really caps occurrences, subgraph
relabelling is consistent, the accountant is monotone, and the coverage
objective is monotone and submodular.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dp.accountant import privim_step_rdp
from repro.dp.clipping import clip_to_norm
from repro.graphs.graph import Graph
from repro.im.spread import coverage_spread
from repro.nn.tensor import Tensor
from repro.sampling import DualStageSamplingConfig, sample_dual_stage
from repro.utils.tables import format_table


def random_graph(seed: int, num_nodes: int, num_edges: int) -> Graph:
    rng = np.random.default_rng(seed)
    pairs = rng.integers(0, num_nodes, size=(num_edges, 2))
    edges = sorted({(int(u), int(v)) for u, v in pairs if u != v})
    return Graph(num_nodes, np.asarray(edges or [(0, 1 % num_nodes)], dtype=np.int64))


class TestClippingProperties:
    @given(
        values=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50),
        bound=st.floats(0.01, 100.0),
    )
    def test_clip_never_exceeds_bound(self, values, bound):
        clipped = clip_to_norm(np.asarray(values), bound)
        assert np.linalg.norm(clipped) <= bound * (1 + 1e-9)

    @given(
        values=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=20),
        bound=st.floats(0.1, 10.0),
    )
    def test_clip_preserves_direction(self, values, bound):
        vector = np.asarray(values)
        clipped = clip_to_norm(vector, bound)
        norm = np.linalg.norm(vector)
        if norm > 0:
            cosine = np.dot(vector, clipped) / (norm * max(np.linalg.norm(clipped), 1e-300))
            assert cosine == pytest.approx(1.0, abs=1e-6) or np.linalg.norm(clipped) == 0


class TestSamplingProperties:
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        threshold=st.integers(1, 5),
        subgraph_size=st.integers(3, 12),
    )
    def test_dual_stage_cap_always_holds(self, seed, threshold, subgraph_size):
        graph = random_graph(seed, 60, 180)
        config = DualStageSamplingConfig(
            subgraph_size=subgraph_size,
            threshold=threshold,
            sampling_rate=1.0,
            walk_length=150,
        )
        result = sample_dual_stage(graph, config, rng=seed)
        assert result.container.max_occurrence(graph.num_nodes) <= threshold

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_subgraph_edges_exist_in_parent(self, seed):
        graph = random_graph(seed, 40, 120)
        rng = np.random.default_rng(seed)
        nodes = rng.choice(40, size=10, replace=False)
        subgraph, node_map = graph.subgraph(nodes)
        for u, v, _ in subgraph.edges():
            assert graph.has_edge(int(node_map[u]), int(node_map[v]))

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_subgraph_keeps_all_internal_edges(self, seed):
        graph = random_graph(seed, 40, 120)
        rng = np.random.default_rng(seed)
        nodes = rng.choice(40, size=10, replace=False)
        subgraph, node_map = graph.subgraph(nodes)
        position = {int(original): local for local, original in enumerate(node_map)}
        expected = sum(
            1
            for u, v, _ in graph.edges()
            if u in position and v in position
        )
        assert subgraph.num_edges == expected


class TestAccountantProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        alpha=st.floats(1.1, 64.0),
        sigma=st.floats(0.2, 10.0),
        batch=st.integers(1, 32),
        occurrences=st.integers(1, 16),
    )
    def test_gamma_positive_and_finite(self, alpha, sigma, batch, occurrences):
        gamma = privim_step_rdp(alpha, sigma, batch, 100, occurrences)
        assert np.isfinite(gamma)
        assert gamma >= 0

    @settings(max_examples=15, deadline=None)
    @given(alpha=st.floats(1.5, 32.0), batch=st.integers(1, 16))
    def test_gamma_decreases_with_sigma(self, alpha, batch):
        low = privim_step_rdp(alpha, 0.5, batch, 100, 4)
        high = privim_step_rdp(alpha, 4.0, batch, 100, 4)
        assert high <= low + 1e-12


class TestCoverageProperties:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_monotone_in_seeds(self, seed):
        graph = random_graph(seed, 30, 90)
        rng = np.random.default_rng(seed)
        seeds = [int(s) for s in rng.choice(30, size=6, replace=False)]
        values = [coverage_spread(graph, seeds[: i + 1]) for i in range(6)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_submodular(self, seed):
        """f(S + v) - f(S) >= f(T + v) - f(T) for S ⊆ T."""
        graph = random_graph(seed, 30, 90)
        rng = np.random.default_rng(seed)
        nodes = [int(s) for s in rng.choice(30, size=5, replace=False)]
        small = nodes[:2]
        large = nodes[:4]
        extra = nodes[4]
        gain_small = coverage_spread(graph, small + [extra]) - coverage_spread(graph, small)
        gain_large = coverage_spread(graph, large + [extra]) - coverage_spread(graph, large)
        assert gain_small >= gain_large


class TestAutogradProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        data=st.lists(st.floats(-100, 100), min_size=1, max_size=16),
    )
    def test_sigmoid_output_in_unit_interval(self, data):
        out = Tensor(np.asarray(data)).sigmoid()
        assert np.all((out.data >= 0) & (out.data <= 1))

    @settings(max_examples=25, deadline=None)
    @given(
        rows=st.integers(1, 5),
        cols=st.integers(1, 5),
        seed=st.integers(0, 1000),
    )
    def test_linearity_of_backward(self, rows, cols, seed):
        """grad of (2 * f) equals 2 * grad of f."""
        rng = np.random.default_rng(seed)
        value = rng.normal(size=(rows, cols))

        def grad_of(scale):
            tensor = Tensor(value.copy(), requires_grad=True)
            (tensor.sigmoid().sum() * scale).backward()
            return tensor.grad

        np.testing.assert_allclose(grad_of(2.0), 2.0 * grad_of(1.0), rtol=1e-10)


class TestTableProperties:
    @given(
        cells=st.lists(
            st.lists(st.integers(-1000, 1000), min_size=2, max_size=2),
            min_size=1,
            max_size=8,
        )
    )
    def test_format_table_line_count(self, cells):
        text = format_table(["x", "y"], cells)
        assert len(text.splitlines()) == 2 + len(cells)


class TestNaiveSamplingProperties:
    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        theta=st.integers(2, 8),
        hops=st.integers(1, 3),
    )
    def test_lemma1_bound_always_holds(self, seed, theta, hops):
        from repro.dp.sensitivity import max_occurrences_naive
        from repro.sampling import NaiveSamplingConfig, sample_naive

        graph = random_graph(seed, 80, 240)
        config = NaiveSamplingConfig(
            theta=theta,
            subgraph_size=6,
            hops=hops,
            sampling_rate=1.0,
            walk_length=120,
        )
        container = sample_naive(graph, config, rng=seed).container
        bound = max_occurrences_naive(theta, hops)
        assert container.max_occurrence(graph.num_nodes) <= bound

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000), theta=st.integers(1, 6))
    def test_projection_bounds_in_degree(self, seed, theta):
        from repro.graphs.degree import project_in_degree

        graph = random_graph(seed, 50, 300)
        projected = project_in_degree(graph, theta, rng=seed)
        assert projected.in_degrees().max() <= theta
