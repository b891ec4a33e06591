"""Tests for the core :class:`Graph` data structure."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import GraphError
from repro.graphs.graph import _MAX_KEYED_NODES, Graph, _unique_arcs
from repro.utils.sorting import stable_argsort


class TestConstruction:
    def test_basic_directed(self, tiny_graph):
        assert tiny_graph.num_nodes == 5
        assert tiny_graph.num_edges == 5
        assert tiny_graph.is_directed

    def test_empty_graph(self):
        graph = Graph(3, [])
        assert graph.num_nodes == 3
        assert graph.num_edges == 0
        assert list(graph.out_neighbors(0)) == []

    def test_zero_node_graph(self):
        graph = Graph(0, [])
        assert graph.num_nodes == 0
        assert graph.average_degree == 0.0

    def test_negative_num_nodes_rejected(self):
        with pytest.raises(GraphError):
            Graph(-1, [])

    def test_edge_out_of_range_rejected(self):
        with pytest.raises(GraphError):
            Graph(2, [(0, 2)])
        with pytest.raises(GraphError):
            Graph(2, [(-1, 0)])

    def test_bad_edge_shape_rejected(self):
        with pytest.raises(GraphError):
            Graph(3, np.array([[0, 1, 2]]))

    def test_weights_length_mismatch_rejected(self):
        with pytest.raises(GraphError):
            Graph(3, [(0, 1)], weights=[0.5, 0.6])

    def test_weights_out_of_range_rejected(self):
        with pytest.raises(GraphError):
            Graph(3, [(0, 1)], weights=[1.5])
        with pytest.raises(GraphError):
            Graph(3, [(0, 1)], weights=[-0.1])

    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_weights_rejected(self, weight):
        with pytest.raises(GraphError, match="finite"):
            Graph(3, [(0, 1), (1, 2)], weights=[0.5, weight])

    def test_default_weights_are_one(self, tiny_graph):
        assert np.all(tiny_graph.edge_arrays()[2] == 1.0)

    def test_undirected_materialises_both_arcs(self):
        graph = Graph(3, [(0, 1), (1, 2)], directed=False)
        assert graph.num_edges == 4
        assert graph.num_undirected_edges == 2
        assert graph.has_edge(1, 0)
        assert graph.has_edge(0, 1)

    def test_undirected_duplicate_edges_deduped(self):
        graph = Graph(2, [(0, 1), (1, 0)], directed=False)
        assert graph.num_edges == 2  # just 0->1 and 1->0


@st.composite
def arc_lists(draw):
    """``(num_nodes, (E, 2) int64 arcs)`` with self-loops and duplicates."""
    num_nodes = draw(st.integers(1, 40))
    count = draw(st.integers(0, 60))
    arcs = draw(hnp.arrays(np.int64, (count, 2), elements=st.integers(0, num_nodes - 1)))
    return num_nodes, arcs


class TestArcDedup:
    @settings(max_examples=200, deadline=None)
    @given(case=arc_lists())
    def test_matches_row_wise_unique(self, case):
        num_nodes, arcs = case
        rows, first_index = _unique_arcs(num_nodes, arcs)
        expected_rows, expected_index = np.unique(arcs, axis=0, return_index=True)
        assert rows.dtype == np.int64 and rows.shape == expected_rows.shape
        assert np.array_equal(rows, expected_rows)
        assert np.array_equal(first_index, expected_index)

    def test_self_loops_duplicates_and_empty_input(self):
        arcs = np.array([[2, 2], [1, 0], [2, 2], [0, 1], [1, 0]], dtype=np.int64)
        rows, first_index = _unique_arcs(3, arcs)
        assert rows.tolist() == [[0, 1], [1, 0], [2, 2]]
        assert first_index.tolist() == [3, 1, 0]
        rows, first_index = _unique_arcs(3, np.empty((0, 2), dtype=np.int64))
        assert rows.shape == (0, 2) and first_index.shape == (0,)

    def test_node_counts_whose_keys_overflow_take_the_row_wise_unique(self):
        num_nodes = _MAX_KEYED_NODES + 1
        big = num_nodes - 1
        arcs = np.array([[big, 0], [0, big], [big, 0], [big, big]], dtype=np.int64)
        rows, first_index = _unique_arcs(num_nodes, arcs)
        expected_rows, expected_index = np.unique(arcs, axis=0, return_index=True)
        assert np.array_equal(rows, expected_rows)
        assert np.array_equal(first_index, expected_index)

    @settings(max_examples=200, deadline=None)
    @given(
        bound=st.sampled_from([1, 2, 2**16, 2**16 + 1, 2**32, 2**40, 2**63 - 1])
        | st.integers(1, 2**63 - 1),
        data=st.data(),
    )
    def test_stable_argsort_matches_numpy(self, bound, data):
        values = data.draw(
            hnp.arrays(np.int64, st.integers(0, 80), elements=st.integers(0, bound - 1))
        )
        expected = np.argsort(values, kind="stable")
        assert np.array_equal(stable_argsort(values, bound), expected)


class TestNeighbors:
    def test_out_neighbors(self, tiny_graph):
        assert sorted(tiny_graph.out_neighbors(0)) == [1, 2]
        assert sorted(tiny_graph.out_neighbors(4)) == []

    def test_in_neighbors(self, tiny_graph):
        assert sorted(tiny_graph.in_neighbors(2)) == [0, 1]
        assert sorted(tiny_graph.in_neighbors(0)) == []

    def test_degrees(self, tiny_graph):
        assert list(tiny_graph.out_degrees()) == [2, 1, 1, 1, 0]
        assert list(tiny_graph.in_degrees()) == [0, 1, 2, 1, 1]

    def test_average_degree(self, tiny_graph):
        assert tiny_graph.average_degree == 1.0

    def test_weights_aligned_with_neighbors(self, weighted_graph):
        neighbors = weighted_graph.out_neighbors(0)
        weights = weighted_graph.out_weights(0)
        lookup = dict(zip(neighbors.tolist(), weights.tolist()))
        assert lookup == {1: 0.5, 2: 0.25}

    def test_in_weights_mirror_out_weights(self, weighted_graph):
        sources = weighted_graph.in_neighbors(3)
        weights = weighted_graph.in_weights(3)
        lookup = dict(zip(sources.tolist(), weights.tolist()))
        assert lookup == {1: 1.0, 2: 0.75}

    def test_node_out_of_range(self, tiny_graph):
        with pytest.raises(GraphError):
            tiny_graph.out_neighbors(5)
        with pytest.raises(GraphError):
            tiny_graph.in_neighbors(-1)

    def test_has_edge(self, tiny_graph):
        assert tiny_graph.has_edge(0, 1)
        assert not tiny_graph.has_edge(1, 0)

    def test_edges_iterator(self, weighted_graph):
        triples = set(weighted_graph.edges())
        assert (0, 1, 0.5) in triples
        assert len(triples) == 4

    def test_edge_index_shape(self, tiny_graph):
        index = tiny_graph.edge_index()
        assert index.shape == (2, 5)
        assert index.min() >= 0 and index.max() < 5


class TestDerivedGraphs:
    def test_subgraph_structure(self, tiny_graph):
        sub, node_map = tiny_graph.subgraph([0, 1, 2])
        assert sub.num_nodes == 3
        assert list(node_map) == [0, 1, 2]
        assert sub.has_edge(0, 1) and sub.has_edge(1, 2) and sub.has_edge(0, 2)
        assert sub.num_edges == 3  # edge 2->3 dropped

    def test_subgraph_respects_order(self, tiny_graph):
        sub, node_map = tiny_graph.subgraph([2, 0])
        assert list(node_map) == [2, 0]
        # Original edge 0->2 becomes local 1->0.
        assert sub.has_edge(1, 0)

    def test_subgraph_duplicates_rejected(self, tiny_graph):
        with pytest.raises(GraphError):
            tiny_graph.subgraph([0, 0, 1])

    def test_subgraph_out_of_range_rejected(self, tiny_graph):
        with pytest.raises(GraphError):
            tiny_graph.subgraph([0, 9])

    def test_subgraph_preserves_weights(self, weighted_graph):
        sub, _ = weighted_graph.subgraph([0, 1])
        assert sub.out_weights(0).tolist() == [0.5]

    def test_reverse(self, tiny_graph):
        reversed_graph = tiny_graph.reverse()
        assert reversed_graph.has_edge(1, 0)
        assert not reversed_graph.has_edge(0, 1)
        assert reversed_graph.num_edges == tiny_graph.num_edges

    def test_reverse_twice_is_identity(self, weighted_graph):
        assert weighted_graph.reverse().reverse() == weighted_graph

    def test_with_uniform_weights(self, weighted_graph):
        uniform = weighted_graph.with_uniform_weights(0.3)
        assert np.all(uniform.edge_arrays()[2] == 0.3)
        with pytest.raises(GraphError):
            weighted_graph.with_uniform_weights(1.2)

    def test_remove_nodes(self, tiny_graph):
        remaining, node_map = tiny_graph.remove_nodes([2])
        assert remaining.num_nodes == 4
        assert 2 not in node_map
        # Edges through node 2 are gone; 3->4 survives as local edge.
        local_3 = list(node_map).index(3)
        local_4 = list(node_map).index(4)
        assert remaining.has_edge(local_3, local_4)


class TestDenseExport:
    def test_adjacency_matrix(self, weighted_graph):
        matrix = weighted_graph.adjacency_matrix()
        assert matrix.shape == (4, 4)
        assert matrix[0, 1] == 0.5
        assert matrix[2, 3] == 0.75
        assert matrix[3, 0] == 0.0

    def test_adjacency_matrix_size_guard(self):
        graph = Graph(10_001, [])
        with pytest.raises(GraphError):
            graph.adjacency_matrix()

    def test_equality(self, tiny_graph):
        clone = Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)])
        assert clone == tiny_graph
        other = Graph(5, [(0, 1)])
        assert other != tiny_graph

    def test_repr(self, tiny_graph):
        assert "num_nodes=5" in repr(tiny_graph)


class TestCSRView:
    """The CSR views (shipped to sampling workers) must agree with the
    adjacency iteration the rest of the library uses."""

    def _assert_csr_matches_adjacency(self, graph):
        out_indptr, out_indices, out_weights = graph.out_csr()
        in_indptr, in_indices, in_weights = graph.in_csr()
        assert len(out_indptr) == graph.num_nodes + 1
        assert len(in_indptr) == graph.num_nodes + 1
        assert out_indptr[-1] == len(out_indices) == graph.num_edges
        assert in_indptr[-1] == len(in_indices) == graph.num_edges
        for node in range(graph.num_nodes):
            np.testing.assert_array_equal(
                out_indices[out_indptr[node] : out_indptr[node + 1]],
                graph.out_neighbors(node),
            )
            np.testing.assert_array_equal(
                in_indices[in_indptr[node] : in_indptr[node + 1]],
                graph.in_neighbors(node),
            )
            np.testing.assert_array_equal(
                out_weights[out_indptr[node] : out_indptr[node + 1]],
                graph.out_weights(node),
            )
            np.testing.assert_array_equal(
                in_weights[in_indptr[node] : in_indptr[node + 1]],
                graph.in_weights(node),
            )
        # The CSR views are exactly the arcs edges() iterates.
        from_csr = [
            (int(u), int(v), float(w))
            for u in range(graph.num_nodes)
            for v, w in zip(
                out_indices[out_indptr[u] : out_indptr[u + 1]],
                out_weights[out_indptr[u] : out_indptr[u + 1]],
            )
        ]
        assert from_csr == list(graph.edges())

    def test_directed_graph(self, tiny_graph):
        self._assert_csr_matches_adjacency(tiny_graph)

    def test_weighted_graph(self, weighted_graph):
        self._assert_csr_matches_adjacency(weighted_graph)

    def test_undirected_graph(self):
        graph = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)], directed=False)
        self._assert_csr_matches_adjacency(graph)

    def test_empty_graph(self):
        self._assert_csr_matches_adjacency(Graph(3, []))

    def test_from_csr_round_trip(self, weighted_graph):
        rebuilt = Graph.from_csr(
            weighted_graph.num_nodes,
            weighted_graph.out_csr(),
            weighted_graph.in_csr(),
            directed=weighted_graph.is_directed,
        )
        assert rebuilt == weighted_graph
        assert rebuilt.is_directed == weighted_graph.is_directed
        np.testing.assert_array_equal(rebuilt.in_degrees(), weighted_graph.in_degrees())
        assert list(rebuilt.edges()) == list(weighted_graph.edges())
        # Derived operations keep working on a rebuilt graph.
        sub, node_map = rebuilt.subgraph([0, 1, 3])
        assert sub.num_nodes == 3

    def test_from_csr_round_trip_undirected(self):
        graph = Graph(4, [(0, 1), (1, 2)], directed=False)
        rebuilt = Graph.from_csr(
            graph.num_nodes, graph.out_csr(), graph.in_csr(), directed=False
        )
        assert rebuilt == graph
        assert rebuilt.num_undirected_edges == 2

    def test_from_csr_validates_shapes(self, tiny_graph):
        out_csr = tiny_graph.out_csr()
        in_csr = tiny_graph.in_csr()
        with pytest.raises(GraphError):
            Graph.from_csr(tiny_graph.num_nodes + 1, out_csr, in_csr)
        bad_in = (in_csr[0], in_csr[1][:-1], in_csr[2][:-1])
        with pytest.raises(GraphError):
            Graph.from_csr(tiny_graph.num_nodes, out_csr, bad_in)


class TestEdgeViewMemoization:
    """edge_arrays()/edge_index() are built once and shared read-only."""

    def test_edge_arrays_cached_and_immutable(self, tiny_graph):
        first = tiny_graph.edge_arrays()
        second = tiny_graph.edge_arrays()
        assert all(a is b for a, b in zip(first, second))
        for array in first:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 99

    def test_edge_index_cached_and_consistent(self, tiny_graph):
        index = tiny_graph.edge_index()
        assert tiny_graph.edge_index() is index
        assert not index.flags.writeable
        sources, targets, _ = tiny_graph.edge_arrays()
        np.testing.assert_array_equal(index[0], sources)
        np.testing.assert_array_equal(index[1], targets)

    def test_from_csr_graph_also_caches(self, weighted_graph):
        rebuilt = Graph.from_csr(
            weighted_graph.num_nodes,
            weighted_graph.out_csr(),
            weighted_graph.in_csr(),
        )
        assert rebuilt.edge_index() is rebuilt.edge_index()

    def test_has_unit_weights_flag(self, tiny_graph, weighted_graph):
        assert tiny_graph.has_unit_weights
        assert not weighted_graph.has_unit_weights
        assert Graph(3, []).has_unit_weights
        # Cached: repeated access returns the same answer without rescans.
        assert tiny_graph.has_unit_weights


class TestIncrementalEdgeMutation:
    """add_edges / remove_edges: the live-serving CSR delta path."""

    def test_directed_add_matches_full_rebuild(self, tiny_graph):
        added = tiny_graph.add_edges([(4, 0), (1, 3)])
        rebuilt = Graph(
            5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)]
        )
        assert added == rebuilt

    def test_directed_add_with_weights(self, tiny_graph):
        added = tiny_graph.add_edges([(4, 0)], weights=[0.25])
        position = list(added.out_neighbors(4)).index(0)
        assert added.out_weights(4)[position] == 0.25

    def test_undirected_add_materialises_both_arcs(self):
        graph = Graph(4, [(0, 1), (1, 2)], directed=False)
        added = graph.add_edges([(2, 3)])
        assert added.has_edge(2, 3) and added.has_edge(3, 2)
        assert added == Graph(4, [(0, 1), (1, 2), (2, 3)], directed=False)

    def test_remove_matches_full_rebuild(self, tiny_graph):
        removed = tiny_graph.remove_edges([(0, 2), (3, 4)])
        assert removed == Graph(5, [(0, 1), (1, 2), (2, 3)])

    def test_remove_duplicate_arcs_matches_full_rebuild(self):
        # Each listed copy drops the earliest remaining one; both CSR
        # directions' indptr, indices and weights match a rebuild without
        # those copies, byte for byte.
        arcs = [(0, 1), (0, 1), (1, 2), (0, 1), (2, 0), (1, 2), (3, 3), (3, 3)]
        weights = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]
        graph = Graph(4, arcs, weights)
        removed = graph.remove_edges([(0, 1), (1, 2), (0, 1), (3, 3)])
        kept = [3, 4, 5, 7]  # arcs 0, 1 and 2 and the first (3, 3) go
        rebuilt = Graph(4, [arcs[i] for i in kept], [weights[i] for i in kept])
        for mine, theirs in zip(
            removed.out_csr() + removed.in_csr(), rebuilt.out_csr() + rebuilt.in_csr()
        ):
            assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes()

    def test_undirected_remove_drops_both_arcs(self):
        graph = Graph(4, [(0, 1), (1, 2), (2, 3)], directed=False)
        removed = graph.remove_edges([(2, 1)])  # either orientation works
        assert not removed.has_edge(1, 2) and not removed.has_edge(2, 1)
        assert removed == Graph(4, [(0, 1), (2, 3)], directed=False)

    def test_add_remove_round_trip_preserves_adjacency(self, tiny_graph):
        round_trip = tiny_graph.add_edges([(4, 0)]).remove_edges([(4, 0)])
        assert round_trip == tiny_graph

    def test_remove_then_re_add_changes_fingerprint_not_adjacency(self):
        from repro.serving.engine import graph_fingerprint

        graph = Graph(4, [(0, 1), (0, 2), (0, 3)])
        cycled = graph.remove_edges([(0, 2)]).add_edges([(0, 2)], weights=[1.0])
        for node in range(4):  # same adjacency (order-insensitive)...
            assert sorted(cycled.out_neighbors(node)) == sorted(
                graph.out_neighbors(node)
            )
        # ...but the arc moved to the end of its CSR bucket, so the
        # content fingerprint (which hashes CSR order) changes — exactly
        # what busts per-graph caches after a live update.
        assert graph_fingerprint(cycled) != graph_fingerprint(graph)

    def test_existing_arc_rejected(self, tiny_graph):
        with pytest.raises(GraphError, match="already present"):
            tiny_graph.add_edges([(0, 1)])

    def test_duplicate_arcs_in_delta_rejected(self, tiny_graph):
        with pytest.raises(GraphError, match="duplicate"):
            tiny_graph.add_edges([(4, 0), (4, 0)])

    def test_missing_arc_rejected_on_remove(self, tiny_graph):
        with pytest.raises(GraphError, match="not present"):
            tiny_graph.remove_edges([(1, 0)])  # reverse arc not present

    def test_endpoint_validation(self, tiny_graph):
        with pytest.raises(GraphError, match="endpoints"):
            tiny_graph.add_edges([(0, 99)])
        with pytest.raises(GraphError, match="at least one"):
            tiny_graph.add_edges([])
        with pytest.raises(GraphError, match="shape"):
            tiny_graph.add_edges([(0, 1, 2)])

    def test_weight_validation(self, tiny_graph):
        with pytest.raises(GraphError, match="\\[0, 1\\]"):
            tiny_graph.add_edges([(4, 0)], weights=[1.5])
        with pytest.raises(GraphError, match="shape"):
            tiny_graph.add_edges([(4, 0)], weights=[0.5, 0.5])

    @pytest.mark.parametrize("weight", [float("nan"), float("inf")])
    def test_non_finite_weight_rejected(self, tiny_graph, weight):
        with pytest.raises(GraphError, match="finite"):
            tiny_graph.add_edges([(4, 0), (1, 3)], weights=[0.5, weight])

    def test_mutation_leaves_original_untouched(self, tiny_graph):
        before = tiny_graph.num_edges
        tiny_graph.add_edges([(4, 0)])
        tiny_graph.remove_edges([(0, 1)])
        assert tiny_graph.num_edges == before
        assert tiny_graph.has_edge(0, 1)

    def test_random_graph_add_matches_rebuild(self):
        rng = np.random.default_rng(11)
        from repro.graphs.generators import erdos_renyi_graph

        graph = erdos_renyi_graph(50, 0.05, rng=rng, directed=True)
        present = set(zip(*graph.edge_arrays()[:2]))
        candidates = [
            (u, v)
            for u in range(50)
            for v in range(50)
            if u != v and (u, v) not in present
        ][:20]
        added = graph.add_edges(candidates)
        sources, targets, _ = graph.edge_arrays()
        rebuilt_edges = list(zip(sources.tolist(), targets.tolist())) + candidates
        rebuilt = Graph(50, rebuilt_edges)
        assert added == rebuilt
