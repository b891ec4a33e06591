"""Structure-only values built once per graph: walk rows and degree features.

The walk's candidate rows live on the shard — for the flat samplers, on
the :class:`Graph` itself — and ``degree_features`` is stored on the
graph, so a graph sampled or featurised twice reuses what the first call
built.  These tests pin that a warm graph gives byte-equal results to a
fresh copy and to the serial oracle, that the θ-projection never enters
the shared store, and that pickles carry none of the derived values.
"""

import pickle

import numpy as np
import pytest

from repro.core.compute_plan import ComputePlan
from repro.gnn.features import degree_features
from repro.graphs.generators import erdos_renyi_graph, powerlaw_cluster_graph
from repro.graphs.graph import Graph
from repro.sampling.dual_stage import DualStageSamplingConfig
from repro.sampling.naive import NaiveSamplingConfig
from repro.sampling.parallel import sample_dual_stage, sample_naive
from repro.sharding import build_shard_set, sample_dual_stage_sharded
from repro.sharding.partition import sorted_unique, whole_graph_shard_set
from repro.sharding.walker import ShardView, WalkParams
from tests.oracles import serial_dual_stage, serial_naive, walk_neighbors

DIRECTIONS = ["out", "in", "both"]


def fresh_copy(graph: Graph) -> Graph:
    """An equal graph object that has built nothing yet."""
    return Graph.from_csr(
        graph.num_nodes,
        tuple(array.copy() for array in graph.out_csr()),
        tuple(array.copy() for array in graph.in_csr()),
        directed=graph.is_directed,
    )


def assert_byte_equal(first, second):
    assert len(first) == len(second)
    for a, b in zip(first, second):
        assert a.node_map.tobytes() == b.node_map.tobytes()
        arrays = zip(
            a.graph.out_csr() + a.graph.in_csr(), b.graph.out_csr() + b.graph.in_csr()
        )
        for x, y in arrays:
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
        assert a.graph.is_directed == b.graph.is_directed


def dual_config(direction):
    return DualStageSamplingConfig(
        subgraph_size=6,
        threshold=3,
        sampling_rate=1.0,
        walk_length=150,
        include_boundary=True,
        direction=direction,
    )


NAIVE_CONFIG = NaiveSamplingConfig(
    subgraph_size=5, sampling_rate=0.8, walk_length=150, theta=6, direction="both"
)


@pytest.fixture(params=[False, True], ids=["undirected", "directed"])
def warm_graph(request):
    """One graph object every sampling call of a test reuses."""
    if request.param:
        return erdos_renyi_graph(90, 0.07, directed=True, rng=4)
    return powerlaw_cluster_graph(90, 3, 0.3, rng=4)


class TestWarmGraphSampling:
    def test_dual_stage_repeats_on_one_graph(self, warm_graph):
        """Every direction, run twice on the same graph object in turn,
        matches a fresh copy and the serial oracle; stage 2 walks the
        availability-filtered rows on top of the warm store."""
        for _round in range(2):
            for direction in DIRECTIONS:
                config = dual_config(direction)
                run = sample_dual_stage(warm_graph, config, rng=9)
                reference = serial_dual_stage(warm_graph, config, rng=9)
                assert run.stage2_count == reference.stage2_count > 0
                assert_byte_equal(run.container, reference.container)
                fresh = sample_dual_stage(fresh_copy(warm_graph), config, rng=9)
                assert_byte_equal(run.container, fresh.container)
        store = warm_graph.derived("walk_rows", dict)
        assert sorted(store) == sorted(DIRECTIONS)
        assert all(0 < len(rows) <= warm_graph.num_nodes for rows in store.values())

    def test_naive_projection_stays_off_the_store(self, warm_graph):
        """The θ-projection is drawn per run: two seeds on one graph match
        the oracle and a fresh copy, and neither leaves a row behind."""
        for seed in (9, 10, 9):
            run = sample_naive(warm_graph, NAIVE_CONFIG, rng=seed)
            reference = serial_naive(warm_graph, NAIVE_CONFIG, rng=seed)
            assert len(reference.container) > 0
            assert_byte_equal(run.container, reference.container)
            fresh = sample_naive(fresh_copy(warm_graph), NAIVE_CONFIG, rng=seed)
            assert_byte_equal(run.container, fresh.container)
        assert not any(warm_graph.derived("walk_rows", dict).values())

    def test_naive_after_dual_stage_ignores_the_warm_rows(self, warm_graph):
        sample_dual_stage(warm_graph, dual_config("both"), rng=9)
        run = sample_naive(warm_graph, NAIVE_CONFIG, rng=9)
        reference = serial_naive(warm_graph, NAIVE_CONFIG, rng=9)
        assert_byte_equal(run.container, reference.container)

    @pytest.mark.parametrize("num_shards", [2, 4])
    def test_sharded_set_first_and_second_pass(self, warm_graph, num_shards):
        shard_set = build_shard_set(warm_graph, num_shards, rng=1)
        config = dual_config("both")
        first = sample_dual_stage_sharded(shard_set, config, rng=9)
        assert any(shard.rows for shard in shard_set.shards)
        second = sample_dual_stage_sharded(shard_set, config, rng=9)
        assert_byte_equal(first.container, second.container)
        reference = serial_dual_stage(warm_graph, config, rng=9)
        assert_byte_equal(second.container, reference.container)


class TestRowHelpers:
    @pytest.mark.parametrize(
        "values",
        [
            np.empty(0, dtype=np.int64),
            np.array([7], dtype=np.int64),
            np.full(12, 3, dtype=np.int64),
            np.random.default_rng(0).integers(0, 400, size=3000),
        ],
        ids=["empty", "singleton", "all-duplicate", "hub"],
    )
    def test_sorted_unique_matches_np_unique(self, values):
        got = sorted_unique(values)
        expected = np.unique(values)
        assert got.dtype == np.int64
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("direction", DIRECTIONS)
    def test_walk_rows_match_the_oracle_neighbours(self, warm_graph, direction):
        shard = whole_graph_shard_set(warm_graph).shards[0]
        for node in range(warm_graph.num_nodes):
            row = shard.walk_row(node, direction)
            expected = walk_neighbors(warm_graph, node, direction)
            assert row.tobytes() == expected.astype(np.int64).tobytes()
            assert shard.walk_row(node, direction) is row
        assert shard.walk_row(warm_graph.num_nodes, direction) is None

    def test_filtered_pass_leaves_the_store_unfiltered(self, warm_graph):
        """Stage 2's availability mask filters the view's rows for one
        pass; the shard keeps the full rows, which the next unfiltered
        pass reads."""
        shard = whole_graph_shard_set(warm_graph).shards[0]
        available = np.arange(warm_graph.num_nodes) % 3 != 0
        params = WalkParams(
            kind="uniform",
            target_size=5,
            walk_length=10,
            restart_probability=0.3,
            direction="both",
        )
        filtered = ShardView(shard)
        filtered.begin_pass(params, available)
        unfiltered = ShardView(shard)
        unfiltered.begin_pass(params, None)
        for node in range(warm_graph.num_nodes):
            full = walk_neighbors(warm_graph, node, "both").astype(np.int64)
            row = filtered.candidates(node)
            assert row.tobytes() == full[available[full]].tobytes()
            assert shard.rows["both"][node].tobytes() == full.tobytes()
            assert unfiltered.candidates(node) is shard.rows["both"][node]

    def test_sharded_rows_are_none_off_the_shard(self, warm_graph):
        shard_set = build_shard_set(warm_graph, 3, rng=1)
        for node in range(warm_graph.num_nodes):
            owner = shard_set.owner_of(node)
            for shard in shard_set.shards:
                row = shard.walk_row(node, "both")
                if shard.shard_id == owner:
                    expected = walk_neighbors(warm_graph, node, "both")
                    assert row.tobytes() == expected.astype(np.int64).tobytes()
                else:
                    assert row is None


class TestDegreeFeatures:
    def test_one_read_only_array_per_graph_and_dim(self, warm_graph):
        first = degree_features(warm_graph, dim=5)
        assert degree_features(warm_graph, dim=5) is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0, 0] = 1.0
        other = degree_features(warm_graph, dim=3)
        assert other is not first
        np.testing.assert_array_equal(other, first[:, :3])

    def test_mutated_graphs_get_new_features(self):
        graph = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4)])
        before = degree_features(graph, dim=5)
        added = graph.add_edges([(0, 5)])
        removed = graph.remove_edges([(3, 4)])
        for mutated, edges in (
            (added, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 5)]),
            (removed, [(0, 1), (1, 2), (2, 3)]),
        ):
            features = degree_features(mutated, dim=5)
            assert features is not before
            rebuilt = degree_features(Graph(6, edges), dim=5)
            np.testing.assert_array_equal(features, rebuilt)
            assert not np.array_equal(features, before)
        assert degree_features(graph, dim=5) is before


class TestPickles:
    def warm(self, graph):
        degree_features(graph, dim=5)
        sample_dual_stage(graph, dual_config("both"), rng=9)
        graph.edge_index()
        assert graph.derived("walk_rows", dict)

    def test_pickled_graph_carries_no_derived_values(self, warm_graph):
        cold_size = len(pickle.dumps(warm_graph))
        self.warm(warm_graph)
        payload = pickle.dumps(warm_graph)
        assert len(payload) == cold_size
        restored = pickle.loads(payload)
        assert restored._derived == {}
        assert restored == warm_graph
        np.testing.assert_array_equal(
            degree_features(restored, dim=5), degree_features(warm_graph, dim=5)
        )
        config = dual_config("both")
        assert_byte_equal(
            sample_dual_stage(restored, config, rng=9).container,
            sample_dual_stage(warm_graph, config, rng=9).container,
        )

    def test_pickled_plan_carries_no_graph_caches(self, warm_graph):
        plan = ComputePlan(warm_graph)
        features = plan.features(5)
        self.warm(warm_graph)
        restored = pickle.loads(pickle.dumps(plan))
        assert restored.graph._derived == {}
        np.testing.assert_array_equal(restored.features(5), features)
        np.testing.assert_array_equal(restored.edge_index, plan.edge_index)
        np.testing.assert_array_equal(restored.edge_weight, plan.edge_weight)
