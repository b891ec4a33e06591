"""Tests for builders, degree projection, neighbourhoods, partition, I/O."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import GraphError
from repro.graphs.builders import from_adjacency_matrix, from_networkx, to_networkx
from repro.graphs.degree import project_in_degree, project_out_degree
from repro.graphs.graph import Graph
from repro.graphs.io import read_edge_list, write_edge_list
from repro.graphs.neighborhoods import k_hop_nodes, k_hop_subgraph
from repro.graphs.partition import partition_graph
from tests.oracles import reference_project_in_degree


@st.composite
def projection_cases(draw):
    """A small graph — self-loops, duplicate arcs, isolated nodes, unit or
    drawn weights, directed or not — and a θ below or above its in-degrees."""
    num_nodes = draw(st.integers(0, 25))
    node = st.integers(0, max(num_nodes - 1, 0))
    pairs = draw(st.lists(st.tuples(node, node), max_size=120)) if num_nodes else []
    weights = draw(
        st.none()
        | st.lists(st.floats(0.0, 1.0), min_size=len(pairs), max_size=len(pairs))
    )
    edges = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    graph = Graph(num_nodes, edges, weights, directed=draw(st.booleans()))
    return graph, draw(st.integers(1, 12))


class TestBuilders:
    def test_from_adjacency_matrix_directed(self):
        matrix = np.array([[0.0, 0.5], [0.0, 0.0]])
        graph = from_adjacency_matrix(matrix)
        assert graph.has_edge(0, 1)
        assert not graph.has_edge(1, 0)
        assert graph.out_weights(0).tolist() == [0.5]

    def test_from_adjacency_matrix_undirected(self):
        matrix = np.array([[0.0, 1.0], [1.0, 0.0]])
        graph = from_adjacency_matrix(matrix, directed=False)
        assert graph.has_edge(0, 1) and graph.has_edge(1, 0)
        assert graph.num_undirected_edges == 1

    def test_asymmetric_undirected_rejected(self):
        with pytest.raises(GraphError):
            from_adjacency_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]), directed=False)

    def test_non_square_rejected(self):
        with pytest.raises(GraphError):
            from_adjacency_matrix(np.ones((2, 3)))

    def test_networkx_roundtrip(self, tiny_graph):
        roundtrip = from_networkx(to_networkx(tiny_graph))
        assert roundtrip == tiny_graph

    def test_networkx_weights_preserved(self, weighted_graph):
        roundtrip = from_networkx(to_networkx(weighted_graph))
        assert roundtrip == weighted_graph

    def test_adjacency_roundtrip(self, weighted_graph):
        roundtrip = from_adjacency_matrix(weighted_graph.adjacency_matrix())
        assert roundtrip == weighted_graph


class TestDegreeProjection:
    def test_in_degrees_bounded(self, social_graph, rng):
        projected = project_in_degree(social_graph, 4, rng)
        assert projected.in_degrees().max() <= 4

    def test_small_degrees_untouched(self, tiny_graph, rng):
        projected = project_in_degree(tiny_graph, 10, rng)
        assert projected == tiny_graph

    def test_projection_is_subset(self, social_graph, rng):
        projected = project_in_degree(social_graph, 3, rng)
        original_edges = set((u, v) for u, v, _ in social_graph.edges())
        for u, v, _ in projected.edges():
            assert (u, v) in original_edges

    def test_weights_follow_kept_edges(self, rng):
        graph = Graph(3, [(0, 2), (1, 2)], weights=[0.25, 0.75])
        projected = project_in_degree(graph, 1, rng)
        assert projected.in_degrees()[2] == 1
        kept_weight = projected.in_weights(2)[0]
        assert kept_weight in (0.25, 0.75)

    def test_theta_validation(self, tiny_graph):
        with pytest.raises(GraphError):
            project_in_degree(tiny_graph, 0)

    def test_out_degree_projection(self, social_graph, rng):
        projected = project_out_degree(social_graph, 4, rng)
        assert projected.out_degrees().max() <= 4

    def test_deterministic_with_seed(self, social_graph):
        first = project_in_degree(social_graph, 3, 42)
        second = project_in_degree(social_graph, 3, 42)
        assert first == second

    @settings(max_examples=60, deadline=None)
    @given(case=projection_cases(), seed=st.integers(0, 2**32 - 1))
    @example(case=(Graph(0, []), 1), seed=0)
    @example(case=(Graph(4, []), 1), seed=0)
    @example(case=(Graph(5, [(0, 4), (1, 4), (2, 4), (4, 4), (1, 4)]), 1), seed=3)
    @example(
        case=(Graph(4, [(0, 1), (1, 2), (2, 0), (3, 3)], directed=False), 1), seed=1
    )
    @example(
        case=(Graph(3, [(0, 2), (1, 2)], weights=[0.25, 0.75]), 2), seed=5
    )
    def test_matches_the_reference_loop(self, case, seed):
        """The vectorized projection is the per-node loop of
        ``tests/oracles.py``, byte for byte: every CSR array, the directed
        flag, and the master generator's state after the draws."""
        graph, theta = case
        generator = np.random.default_rng(seed)
        reference_generator = np.random.default_rng(seed)
        projected = project_in_degree(graph, theta, generator)
        reference = reference_project_in_degree(graph, theta, reference_generator)
        for got, expected in zip(
            projected.out_csr() + projected.in_csr(),
            reference.out_csr() + reference.in_csr(),
        ):
            assert got.dtype == expected.dtype
            assert got.tobytes() == expected.tobytes()
        assert projected.is_directed == reference.is_directed == graph.is_directed
        assert generator.random() == reference_generator.random()


class TestNeighborhoods:
    def test_zero_hops(self, tiny_graph):
        assert k_hop_nodes(tiny_graph, 0, 0) == {0}

    def test_out_direction(self, tiny_graph):
        assert k_hop_nodes(tiny_graph, 0, 1, direction="out") == {0, 1, 2}
        assert k_hop_nodes(tiny_graph, 0, 2, direction="out") == {0, 1, 2, 3}

    def test_in_direction(self, tiny_graph):
        assert k_hop_nodes(tiny_graph, 2, 1, direction="in") == {0, 1, 2}

    def test_both_direction(self, tiny_graph):
        assert k_hop_nodes(tiny_graph, 4, 1, direction="both") == {3, 4}

    def test_matches_networkx_shortest_paths(self, social_graph):
        import networkx as nx

        nx_graph = to_networkx(social_graph)
        for hops in (1, 2, 3):
            expected = {
                node
                for node, dist in nx.single_source_shortest_path_length(
                    nx_graph, 0, cutoff=hops
                ).items()
            }
            assert k_hop_nodes(social_graph, 0, hops, direction="out") == expected

    def test_validation(self, tiny_graph):
        with pytest.raises(GraphError):
            k_hop_nodes(tiny_graph, 0, -1)
        with pytest.raises(GraphError):
            k_hop_nodes(tiny_graph, 0, 1, direction="sideways")
        with pytest.raises(GraphError):
            k_hop_nodes(tiny_graph, 99, 1)

    def test_k_hop_subgraph_start_is_node_zero(self, tiny_graph):
        subgraph, node_map = k_hop_subgraph(tiny_graph, 2, 1, direction="out")
        assert node_map[0] == 2
        assert set(node_map) == {2, 3}
        assert subgraph.has_edge(0, 1)


class TestPartition:
    @pytest.mark.parametrize("method", ["hash", "bfs"])
    def test_covers_all_nodes_once(self, social_graph, method):
        parts = partition_graph(social_graph, 4, method=method, rng=0)
        all_nodes = np.concatenate([node_map for _, node_map in parts])
        assert sorted(all_nodes) == list(range(social_graph.num_nodes))

    @pytest.mark.parametrize("method", ["hash", "bfs"])
    def test_non_empty_parts(self, social_graph, method):
        parts = partition_graph(social_graph, 5, method=method, rng=0)
        assert all(sub.num_nodes > 0 for sub, _ in parts)

    def test_bfs_parts_are_balanced(self, social_graph):
        parts = partition_graph(social_graph, 3, method="bfs", rng=0)
        sizes = [sub.num_nodes for sub, _ in parts]
        assert max(sizes) - min(sizes) <= social_graph.num_nodes // 3 + 1

    def test_single_partition_is_whole_graph(self, social_graph):
        parts = partition_graph(social_graph, 1, rng=0)
        assert parts[0][0].num_nodes == social_graph.num_nodes

    def test_validation(self, tiny_graph):
        with pytest.raises(GraphError):
            partition_graph(tiny_graph, 0)
        with pytest.raises(GraphError):
            partition_graph(tiny_graph, 99)
        with pytest.raises(GraphError):
            partition_graph(tiny_graph, 2, method="metis")


class TestIO:
    def test_roundtrip(self, weighted_graph, tmp_path):
        path = tmp_path / "graph.txt"
        write_edge_list(weighted_graph, path)
        loaded = read_edge_list(path, directed=True)
        assert loaded == weighted_graph

    def test_undirected_roundtrip(self, tmp_path):
        graph = Graph(3, [(0, 1), (1, 2)], directed=False)
        path = tmp_path / "graph.txt"
        write_edge_list(graph, path)
        loaded = read_edge_list(path, directed=False)
        assert loaded.num_undirected_edges == 2

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("# comment\n\n0 1\n% other comment\n1 2 0.5\n")
        graph = read_edge_list(path)
        assert graph.num_edges == 2
        assert 0.5 in graph.edge_arrays()[2]

    def test_relabel_compacts_sparse_ids(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("100 200\n200 300\n")
        graph = read_edge_list(path, relabel=True)
        assert graph.num_nodes == 3

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("42\n")
        with pytest.raises(GraphError):
            read_edge_list(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("# nothing\n")
        graph = read_edge_list(path)
        assert graph.num_nodes == 0
