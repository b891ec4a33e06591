"""Partition and shard-set invariants (hypothesis + differential).

Two layers are covered here:

* :mod:`repro.graphs.partition` — drop-mode assignment/partitioning and
  its :class:`PartitionStats` accounting.
* :mod:`repro.sharding.partition` — halo-mode shard sets, whose contract
  is lossless: reassembling the shards must reproduce the original graph
  bit-for-bit (adjacency, weights, fingerprint).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import GraphError
from repro.graphs.generators import erdos_renyi_graph, powerlaw_cluster_graph
from repro.graphs.graph import Graph
from repro.graphs.partition import (
    PartitionStats,
    compute_partition_stats,
    partition_assignment,
    partition_graph,
)
from repro.serving import graph_fingerprint
from repro.sharding import ShardSet, build_shard_set, load_shard
from repro.utils.rng import ensure_rng
from tests.oracles import reference_bfs_partition


def _graph_for(seed: int, directed: bool):
    if directed:
        return erdos_renyi_graph(90, 0.06, directed=True, rng=seed)
    return powerlaw_cluster_graph(90, 3, 0.3, rng=seed)


class TestPartitionAssignment:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 1_000),
        num_parts=st.integers(1, 6),
        method=st.sampled_from(["bfs", "hash"]),
        directed=st.booleans(),
    )
    def test_disjoint_cover_and_stats(self, seed, num_parts, method, directed):
        graph = _graph_for(seed, directed)
        assignment = partition_assignment(
            graph, num_parts, method=method, rng=seed
        )
        # Every node lands in exactly one part; parts cover the node set.
        assert assignment.shape == (graph.num_nodes,)
        assert assignment.min() >= 0 and assignment.max() < num_parts
        stats = compute_partition_stats(graph, assignment, method=method)
        assert isinstance(stats, PartitionStats)
        assert sum(stats.sizes) == graph.num_nodes
        assert all(size > 0 for size in stats.sizes)
        assert 0 <= stats.cut_arcs <= stats.total_arcs
        assert 0.0 <= stats.cut_fraction <= 1.0
        assert stats.balance >= 1.0 - 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        num_nodes=st.integers(1, 120),
        num_parts=st.integers(1, 8),
        directed=st.booleans(),
        data=st.data(),
    )
    def test_bfs_matches_the_per_neighbour_loop(
        self, seed, num_nodes, num_parts, directed, data
    ):
        # Arbitrary arc lists: isolated nodes, self-loops, duplicate arcs.
        arcs = data.draw(
            st.lists(
                st.tuples(st.integers(0, num_nodes - 1), st.integers(0, num_nodes - 1)),
                max_size=4 * num_nodes,
            )
        )
        graph = Graph(num_nodes, arcs, directed=directed)
        num_parts = min(num_parts, num_nodes)
        assignment = partition_assignment(graph, num_parts, method="bfs", rng=seed)
        expected = reference_bfs_partition(graph, num_parts, ensure_rng(seed))
        assert np.array_equal(assignment, expected)

    def test_bfs_matches_the_per_neighbour_loop_on_a_clustered_graph(self):
        graph = powerlaw_cluster_graph(2_000, 6, 0.3, rng=4)
        for num_parts in (1, 4, 7):
            assignment = partition_assignment(graph, num_parts, method="bfs", rng=0)
            expected = reference_bfs_partition(graph, num_parts, ensure_rng(0))
            assert np.array_equal(assignment, expected)

    def test_partition_graph_drop_mode_loses_cut_arcs(self):
        graph = powerlaw_cluster_graph(80, 3, 0.3, rng=5)
        partitions, stats = partition_graph(
            graph, 3, method="bfs", rng=5, return_stats=True
        )
        assert len(partitions) == 3
        kept_arcs = sum(part.num_edges for part, _ in partitions)
        # Drop mode: cut arcs vanish from the union of the parts.
        assert kept_arcs == stats.total_arcs - stats.cut_arcs

    def test_invalid_part_count_rejected(self, tiny_graph):
        with pytest.raises(GraphError):
            partition_assignment(tiny_graph, 0)
        with pytest.raises(GraphError):
            partition_assignment(tiny_graph, tiny_graph.num_nodes + 1)


class TestShardSetReassembly:
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 500),
        num_shards=st.integers(1, 5),
        method=st.sampled_from(["bfs", "hash"]),
        directed=st.booleans(),
    )
    def test_halo_mode_reassembly_is_lossless(
        self, seed, num_shards, method, directed
    ):
        graph = _graph_for(seed, directed)
        shard_set = build_shard_set(graph, num_shards, method=method, rng=seed)
        # Owned node sets partition the node ids.
        owned = np.concatenate([shard.owned for shard in shard_set.shards])
        np.testing.assert_array_equal(
            np.sort(owned), np.arange(graph.num_nodes)
        )
        rebuilt = shard_set.reassemble()
        assert rebuilt == graph
        assert graph_fingerprint(rebuilt) == graph_fingerprint(graph)
        stats = shard_set.stats()
        assert stats.total_arcs == graph.num_edges

    def test_halo_nodes_are_exactly_the_cut_frontier(self):
        graph = powerlaw_cluster_graph(100, 3, 0.3, rng=9)
        shard_set = build_shard_set(graph, 4, rng=9)
        assignment = shard_set.assignment
        sources, targets, _ = graph.edge_arrays()
        for shard in shard_set.shards:
            mine = assignment == shard.shard_id
            frontier = set()
            for u, v in zip(sources, targets):
                if mine[u] and not mine[v]:
                    frontier.add(int(v))
                if mine[v] and not mine[u]:
                    frontier.add(int(u))
            assert frontier == set(shard.halo.tolist())
            # Halo owners recorded correctly.
            for node, owner in zip(shard.halo, shard.halo_owner):
                assert assignment[node] == owner

    def test_save_load_round_trip(self, tmp_path):
        graph = erdos_renyi_graph(70, 0.08, directed=True, rng=3)
        shard_set = build_shard_set(graph, 3, rng=3)
        shard_set.save(tmp_path)
        loaded = ShardSet.load(tmp_path)
        assert loaded.reassemble() == graph
        np.testing.assert_array_equal(loaded.assignment, shard_set.assignment)
        # Individual shards load standalone and answer row queries.
        shard = load_shard(tmp_path / "shard-00001.bin")
        original = shard_set.shards[1]
        np.testing.assert_array_equal(shard.owned, original.owned)
        for name in ("global_ids", "out_indptr", "out_local", "out_weights",
                     "in_indptr", "in_local", "in_weights"):
            np.testing.assert_array_equal(
                getattr(shard, name), getattr(original, name)
            )

    def test_corrupt_shard_file_rejected(self, tmp_path):
        graph = erdos_renyi_graph(50, 0.1, rng=1)
        build_shard_set(graph, 2, rng=1).save(tmp_path)
        path = tmp_path / "shard-00000.bin"
        payload = bytearray(path.read_bytes())
        payload[-3] ^= 0xFF
        path.write_bytes(bytes(payload))
        with pytest.raises(GraphError):
            load_shard(path)

    def test_truncated_shard_file_rejected(self, tmp_path):
        graph = erdos_renyi_graph(50, 0.1, rng=2)
        build_shard_set(graph, 2, rng=2).save(tmp_path)
        path = tmp_path / "shard-00000.bin"
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(GraphError):
            load_shard(path)

    def test_partition_stats_event_emitted(self):
        from repro.obs import Observability, RunRecorder

        recorder = RunRecorder()
        obs = Observability(recorder=recorder)
        graph = powerlaw_cluster_graph(60, 2, 0.2, rng=4)
        build_shard_set(graph, 2, rng=4, obs=obs)
        events = [e for e in recorder.events if e["type"] == "sharding.partition"]
        assert len(events) == 1
        assert events[0]["num_parts"] == 2
        assert events[0]["halo_mode"] is True
