"""Tests for the native random-graph generators (cross-checked vs networkx)."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graphs.builders import to_networkx
from repro.graphs.generators import (
    barabasi_albert_graph,
    erdos_renyi_graph,
    powerlaw_cluster_graph,
    stochastic_block_graph,
    watts_strogatz_graph,
)


class TestErdosRenyi:
    def test_p_zero(self):
        assert erdos_renyi_graph(50, 0.0, rng=0).num_edges == 0

    def test_p_one_undirected(self):
        graph = erdos_renyi_graph(10, 1.0, rng=0)
        assert graph.num_undirected_edges == 45

    def test_p_one_directed(self):
        graph = erdos_renyi_graph(10, 1.0, directed=True, rng=0)
        assert graph.num_edges == 90
        assert not any(u == v for u, v, _ in graph.edges())

    def test_edge_count_near_expectation(self):
        graph = erdos_renyi_graph(300, 0.05, rng=0)
        expected = 0.05 * 300 * 299 / 2
        assert abs(graph.num_undirected_edges - expected) < 4 * np.sqrt(expected)

    def test_directed_edge_count_near_expectation(self):
        graph = erdos_renyi_graph(200, 0.03, directed=True, rng=1)
        expected = 0.03 * 200 * 199
        assert abs(graph.num_edges - expected) < 4 * np.sqrt(expected)

    def test_no_self_loops_or_duplicates(self):
        graph = erdos_renyi_graph(100, 0.1, directed=True, rng=2)
        arcs = [(u, v) for u, v, _ in graph.edges()]
        assert len(arcs) == len(set(arcs))
        assert all(u != v for u, v in arcs)

    def test_deterministic(self):
        assert erdos_renyi_graph(60, 0.1, rng=5) == erdos_renyi_graph(60, 0.1, rng=5)

    def test_validation(self):
        with pytest.raises(GraphError):
            erdos_renyi_graph(-1, 0.5)
        with pytest.raises(GraphError):
            erdos_renyi_graph(10, 1.5)

    @pytest.mark.parametrize("directed", [False, True])
    def test_smallest_subnormal_probability(self, directed):
        # log(u) / log1p(-5e-324) overflows to inf: the skip passes every pair.
        assert erdos_renyi_graph(2, 5e-324, directed=directed, rng=0).num_edges == 0
        assert erdos_renyi_graph(50, 5e-324, directed=directed, rng=1).num_edges == 0

    def test_a_draw_of_zero_ends_the_skip_loop(self):
        class ZeroDraws(np.random.Generator):
            def random(self, *args, **kwargs):
                return 0.0

        graph = erdos_renyi_graph(5, 0.5, rng=ZeroDraws(np.random.PCG64(0)))
        assert graph.num_edges == 0

    def test_draw_sequence_is_pinned(self):
        generator = np.random.default_rng(7)
        graph = erdos_renyi_graph(12, 0.25, rng=generator)
        assert sorted((u, v) for u, v, _ in graph.edges() if u < v) == [
            (0, 2), (0, 3), (0, 4), (0, 10), (1, 5), (1, 6), (3, 8), (3, 9),
            (3, 10), (4, 6), (4, 11), (5, 10), (6, 10), (7, 9), (8, 9),
            (9, 10), (9, 11), (10, 11),
        ]
        # One draw per pick plus the one that ended the loop.
        reference = np.random.default_rng(7)
        reference.random(19)
        assert generator.random() == reference.random()


class TestBarabasiAlbert:
    def test_edge_count(self):
        graph = barabasi_albert_graph(100, 3, rng=0)
        assert graph.num_undirected_edges == (100 - 3) * 3

    def test_heavy_tail(self):
        graph = barabasi_albert_graph(500, 2, rng=0)
        degrees = np.asarray(graph.out_degrees())
        # Hubs exist: max degree far above the mean, as in BA graphs.
        assert degrees.max() > 4 * degrees.mean()

    def test_connected(self):
        import networkx as nx

        graph = barabasi_albert_graph(200, 2, rng=1)
        assert nx.is_connected(to_networkx(graph).to_undirected())

    def test_validation(self):
        with pytest.raises(GraphError):
            barabasi_albert_graph(5, 0)
        with pytest.raises(GraphError):
            barabasi_albert_graph(5, 5)


class TestWattsStrogatz:
    def test_no_rewiring_is_ring_lattice(self):
        graph = watts_strogatz_graph(20, 4, 0.0, rng=0)
        degrees = np.asarray(graph.out_degrees())
        assert np.all(degrees == 4)

    def test_rewiring_preserves_edge_count_approximately(self):
        base = watts_strogatz_graph(100, 4, 0.0, rng=0)
        rewired = watts_strogatz_graph(100, 4, 0.5, rng=0)
        assert abs(rewired.num_undirected_edges - base.num_undirected_edges) <= 5

    def test_validation(self):
        with pytest.raises(GraphError):
            watts_strogatz_graph(2, 2, 0.1)
        with pytest.raises(GraphError):
            watts_strogatz_graph(10, 2, 1.5)


class TestPowerlawCluster:
    def test_edge_count(self):
        graph = powerlaw_cluster_graph(100, 3, 0.3, rng=0)
        assert graph.num_undirected_edges == (100 - 3) * 3

    def test_higher_triangle_probability_more_clustering(self):
        import networkx as nx

        low = powerlaw_cluster_graph(300, 3, 0.0, rng=3)
        high = powerlaw_cluster_graph(300, 3, 0.9, rng=3)
        clustering_low = nx.average_clustering(to_networkx(low).to_undirected())
        clustering_high = nx.average_clustering(to_networkx(high).to_undirected())
        assert clustering_high > clustering_low

    def test_validation(self):
        with pytest.raises(GraphError):
            powerlaw_cluster_graph(10, 0, 0.3)
        with pytest.raises(GraphError):
            powerlaw_cluster_graph(10, 2, 1.5)


class TestStochasticBlock:
    def test_within_block_density_higher(self):
        graph = stochastic_block_graph([50, 50], 0.3, 0.01, rng=0)
        within = between = 0
        for u, v, _ in graph.edges():
            if (u < 50) == (v < 50):
                within += 1
            else:
                between += 1
        assert within > between

    def test_validation(self):
        with pytest.raises(GraphError):
            stochastic_block_graph([], 0.5, 0.5)
        with pytest.raises(GraphError):
            stochastic_block_graph([5], 1.5, 0.5)
