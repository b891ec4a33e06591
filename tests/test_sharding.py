"""Sharded-engine equivalence: sharded sampling must be bit-identical to
the serial oracle of :mod:`tests.oracles` on the reassembled graph.

The contract mirrors :mod:`tests.test_sampling_parallel`: ``num_shards``
is a pure memory layout.  For a fixed seed every shard count must produce
the same subgraphs, in the same order, with the same node maps, frequency
counts, and stats — and the dual-stage occurrence caps must stay
*globally* exact.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SamplingError
from repro.graphs.generators import erdos_renyi_graph, powerlaw_cluster_graph
from repro.sampling.dual_stage import DualStageSamplingConfig
from repro.sampling.naive import NaiveSamplingConfig
from repro.sampling.parallel import sample_dual_stage, sample_naive
from repro.sharding import (
    ShardSet,
    ShardedStoreSink,
    build_shard_set,
    sample_dual_stage_sharded,
    sample_naive_sharded,
    whole_graph_shard_set,
)
from tests.oracles import serial_dual_stage, serial_naive

SHARD_COUNTS = [1, 2, 4]


def assert_containers_identical(first, second):
    assert len(first) == len(second)
    for a, b in zip(first, second):
        np.testing.assert_array_equal(a.node_map, b.node_map)
        assert a.graph == b.graph


@pytest.fixture(scope="module")
def graph():
    return powerlaw_cluster_graph(130, 3, 0.3, rng=11)


@pytest.fixture(scope="module")
def directed_graph():
    return erdos_renyi_graph(110, 0.06, directed=True, rng=5)


DUAL_CONFIG = DualStageSamplingConfig(
    subgraph_size=8, threshold=3, sampling_rate=1.0, walk_length=200
)
NAIVE_CONFIG = NaiveSamplingConfig(
    subgraph_size=7, sampling_rate=0.6, walk_length=200, theta=8
)


class TestDualStageSharded:
    @pytest.fixture(scope="class")
    def reference(self, graph):
        run = serial_dual_stage(graph, DUAL_CONFIG, rng=7)
        assert len(run.container) > 0
        return run

    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_bit_identical_to_serial(self, graph, reference, num_shards):
        shard_set = build_shard_set(graph, num_shards, rng=1)
        run = sample_dual_stage_sharded(shard_set, DUAL_CONFIG, rng=7)
        assert_containers_identical(run.container, reference.container)
        np.testing.assert_array_equal(
            run.frequency.counts, reference.frequency.counts
        )
        assert run.stage1_count == reference.stage1_count
        assert run.stage2_count == reference.stage2_count
        stats, ref = run.stats, reference.stats
        assert stats.starts_selected == ref.starts_selected
        assert stats.starts_skipped == ref.starts_skipped
        assert stats.walks_attempted == ref.walks_attempted
        assert stats.walks_failed == ref.walks_failed
        assert stats.walks_rejected == ref.walks_rejected
        assert stats.subgraphs_emitted == ref.subgraphs_emitted
        assert stats.num_shards == num_shards
        if num_shards > 1:
            assert stats.frontier_forwards > 0
            assert stats.exchange_rounds > 0

    def test_partition_method_is_irrelevant(self, graph, reference):
        """The assignment is a layout choice: hash shards sample the same."""
        shard_set = build_shard_set(graph, 3, method="hash", rng=99)
        run = sample_dual_stage_sharded(shard_set, DUAL_CONFIG, rng=7)
        assert_containers_identical(run.container, reference.container)

    def test_disk_loaded_shards_identical(self, graph, reference, tmp_path):
        build_shard_set(graph, 2, rng=1).save(tmp_path)
        shard_set = ShardSet.load(tmp_path)
        run = sample_dual_stage_sharded(shard_set, DUAL_CONFIG, rng=7)
        assert_containers_identical(run.container, reference.container)

    def test_exchange_counts_pinned(self, graph):
        """The BSP exchange is part of the engine's observable behaviour:
        one fixed-seed 4-shard run takes exactly these rounds and hand-offs,
        and a second run agrees with it exactly."""
        runs = [
            sample_dual_stage_sharded(
                build_shard_set(graph, 4, rng=1), DUAL_CONFIG, rng=7
            ).stats
            for _ in range(2)
        ]
        for stats in runs:
            assert stats.exchange_rounds == 875
            assert stats.frontier_forwards == 5483
        assert runs[0].shard_walks == runs[1].shard_walks

    def test_directed_graph(self, directed_graph):
        config = DualStageSamplingConfig(
            subgraph_size=6, threshold=3, sampling_rate=1.0, walk_length=200
        )
        reference = serial_dual_stage(directed_graph, config, rng=3)
        shard_set = build_shard_set(directed_graph, 3, rng=2)
        run = sample_dual_stage_sharded(shard_set, config, rng=3)
        assert_containers_identical(run.container, reference.container)

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(0, 300),
        num_shards=st.integers(1, 4),
        threshold=st.integers(2, 5),
    )
    def test_occurrence_cap_globally_exact(self, seed, num_shards, threshold):
        """The dual-stage bound N_g* = M holds exactly across shards: no
        node occurs in more than ``threshold`` accepted subgraphs."""
        graph = powerlaw_cluster_graph(90, 3, 0.3, rng=seed)
        config = DualStageSamplingConfig(
            subgraph_size=6,
            threshold=threshold,
            sampling_rate=1.0,
            walk_length=150,
        )
        shard_set = build_shard_set(graph, num_shards, rng=seed)
        run = sample_dual_stage_sharded(shard_set, config, rng=seed)
        counts = np.zeros(graph.num_nodes, dtype=np.int64)
        for subgraph in run.container:
            counts[subgraph.node_map] += 1
        assert counts.max() <= threshold
        np.testing.assert_array_equal(counts, run.frequency.counts)


class TestNaiveSharded:
    @pytest.fixture(scope="class")
    def reference(self, graph):
        run = serial_naive(graph, NAIVE_CONFIG, rng=13)
        assert len(run.container) > 0
        return run

    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_bit_identical_to_serial(self, graph, reference, num_shards):
        shard_set = build_shard_set(graph, num_shards, rng=1)
        run = sample_naive_sharded(shard_set, NAIVE_CONFIG, rng=13)
        assert_containers_identical(run.container, reference.container)

    def test_distributed_projection_matches_serial(self, graph, reference):
        """The 4-phase distributed θ-projection equals Graph-level
        projection: reassembling the projected shards reproduces the
        serial projected graph."""
        shard_set = build_shard_set(graph, 3, rng=1)
        run = sample_naive_sharded(
            shard_set, NAIVE_CONFIG, rng=13, return_projection=True
        )
        assert run.reassemble_projected() == reference.projected


GRID = [
    pytest.param(
        directed,
        boundary,
        direction,
        id=f"{'directed' if directed else 'undirected'}-"
        f"{'bes' if boundary else 'scs'}-{direction}",
    )
    for directed in (False, True)
    for boundary in (True, False)
    for direction in ("out", "both")
]


class TestOracleGrid:
    """Flat, 2-shard and 4-shard runs match the serial oracle on directed
    and undirected graphs, with and without BES, walking out or both
    ways."""

    @staticmethod
    def grid_graph(directed):
        if directed:
            return erdos_renyi_graph(90, 0.07, directed=True, rng=4)
        return powerlaw_cluster_graph(90, 3, 0.3, rng=4)

    @pytest.mark.parametrize("directed,boundary,direction", GRID)
    def test_dual_stage_matches_oracle(self, directed, boundary, direction):
        graph = self.grid_graph(directed)
        config = DualStageSamplingConfig(
            subgraph_size=6,
            threshold=3,
            sampling_rate=1.0,
            walk_length=150,
            include_boundary=boundary,
            direction=direction,
        )
        reference = serial_dual_stage(graph, config, rng=9)
        assert len(reference.container) > 0
        runs = [sample_dual_stage(graph, config, rng=9)] + [
            sample_dual_stage_sharded(
                build_shard_set(graph, num_shards, rng=1), config, rng=9
            )
            for num_shards in (2, 4)
        ]
        for run in runs:
            assert_containers_identical(run.container, reference.container)
            assert run.stage2_count == reference.stage2_count
            assert run.stats.walks_rejected == reference.stats.walks_rejected

    @pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
    @pytest.mark.parametrize("direction", ["out", "both"])
    def test_naive_matches_oracle(self, directed, direction):
        graph = self.grid_graph(directed)
        config = NaiveSamplingConfig(
            subgraph_size=5,
            sampling_rate=0.8,
            walk_length=150,
            theta=6,
            direction=direction,
        )
        reference = serial_naive(graph, config, rng=9)
        assert len(reference.container) > 0
        flat = sample_naive(graph, config, rng=9)
        assert flat.projected == reference.projected
        sharded = [
            sample_naive_sharded(
                build_shard_set(graph, num_shards, rng=1), config, rng=9
            )
            for num_shards in (2, 4)
        ]
        for run in [flat] + sharded:
            assert_containers_identical(run.container, reference.container)
            assert run.stats.starts_skipped == reference.stats.starts_skipped


class TestWholeGraphShard:
    """The flat samplers' shard is the graph itself: zero-copy, no
    partition pass."""

    def test_shares_the_graph_csr(self, graph):
        shard = whole_graph_shard_set(graph).shards[0]
        mine = (
            shard.out_indptr,
            shard.out_local,
            shard.out_weights,
            shard.in_indptr,
            shard.in_local,
            shard.in_weights,
        )
        for array, graph_array in zip(mine, graph.out_csr() + graph.in_csr()):
            assert np.shares_memory(array, graph_array)
        assert shard.num_halo == 0
        np.testing.assert_array_equal(shard.global_ids, np.arange(graph.num_nodes))

    def test_flat_sampling_never_partitions(self, graph, monkeypatch):
        import repro.sharding.partition as partition
        from repro.core.pipeline import PrivIMConfig, PrivIMStar

        def refuse(*args, **kwargs):
            raise AssertionError("flat sampling ran partition_assignment")

        monkeypatch.setattr(partition, "partition_assignment", refuse)
        sample_dual_stage(graph, DUAL_CONFIG, rng=7)
        sample_naive(graph, NAIVE_CONFIG, rng=13)
        PrivIMStar(
            PrivIMConfig(subgraph_size=8, iterations=2, sampling_rate=0.5, rng=1)
        ).fit(graph)


class TestShardedSink:
    def test_merged_store_matches_serial_emission(self, graph, tmp_path):
        reference = serial_dual_stage(graph, DUAL_CONFIG, rng=7)
        shard_set = build_shard_set(graph, 3, rng=1)
        sink = ShardedStoreSink(
            str(tmp_path / "shards"), shard_set.assignment, 3
        )
        sample_dual_stage_sharded(shard_set, DUAL_CONFIG, rng=7, sink=sink)
        merged = sink.finalize_merged(
            str(tmp_path / "merged"),
            expected_max_occurrence=DUAL_CONFIG.threshold,
            num_original_nodes=graph.num_nodes,
        )
        try:
            assert_containers_identical(merged, reference.container)
            assert merged.meta["num_sources"] == 3
        finally:
            merged.close()

    def test_audit_rejects_violating_bound(self, graph, tmp_path):
        shard_set = build_shard_set(graph, 2, rng=1)
        sink = ShardedStoreSink(
            str(tmp_path / "shards"), shard_set.assignment, 2
        )
        sample_dual_stage_sharded(shard_set, DUAL_CONFIG, rng=7, sink=sink)
        with pytest.raises(SamplingError, match="occurrence bound"):
            sink.finalize_merged(
                str(tmp_path / "merged"),
                expected_max_occurrence=0,
                num_original_nodes=graph.num_nodes,
            )


class TestShardedStoreTrainEndToEnd:
    def test_sharded_store_trains_identical_to_flat(self, graph, tmp_path):
        """The full sharded workflow — partition, sample into per-shard
        stores, merge, train — is byte-identical to sampling and training
        on the flat graph, including a mid-run checkpoint resume."""
        from tests.oracles import (
            assert_outcomes_identical,
            resumed_outcome,
            train_outcome,
        )

        reference = serial_dual_stage(graph, DUAL_CONFIG, rng=7)
        oracle = train_outcome(reference.container, iterations=4)
        shard_set = build_shard_set(graph, 3, rng=1)
        sink = ShardedStoreSink(
            str(tmp_path / "shards"), shard_set.assignment, 3
        )
        sample_dual_stage_sharded(shard_set, DUAL_CONFIG, rng=7, sink=sink)
        merged = sink.finalize_merged(
            str(tmp_path / "merged"),
            expected_max_occurrence=DUAL_CONFIG.threshold,
            num_original_nodes=graph.num_nodes,
        )
        try:
            assert_containers_identical(merged, reference.container)
            candidate = train_outcome(merged, iterations=4)
            assert_outcomes_identical(candidate, oracle, label="sharded store")
            resumed = resumed_outcome(
                merged,
                split_at=2,
                iterations=4,
                checkpoint_path=str(tmp_path / "resume.ckpt"),
            )
            assert_outcomes_identical(
                resumed, oracle, label="sharded store resume"
            )
        finally:
            merged.close()


class TestPipelineSharded:
    def test_fit_bit_identical_to_flat(self, tmp_path):
        from repro.core.pipeline import PrivIMConfig, PrivIMStar

        graph = powerlaw_cluster_graph(120, 3, 0.3, rng=21)
        base = dict(
            epsilon=2.0,
            subgraph_size=8,
            threshold=4,
            walk_length=80,
            sampling_rate=0.6,
            iterations=3,
            batch_size=8,
            hidden_features=8,
            rng=42,
        )
        flat = PrivIMStar(PrivIMConfig(**base)).fit(graph)
        sharded = PrivIMStar(
            PrivIMConfig(
                **base,
                num_shards=2,
                shard_dir=str(tmp_path / "shards"),
            )
        ).fit(graph)
        assert flat.history.losses == sharded.history.losses
        assert flat.sigma == sharded.sigma
        assert flat.num_subgraphs == sharded.num_subgraphs
        # A second run reloads the persisted shard set and still agrees.
        reloaded = PrivIMStar(
            PrivIMConfig(**base, num_shards=2, shard_dir=str(tmp_path / "shards"))
        ).fit(graph)
        assert flat.history.losses == reloaded.history.losses

    def test_shard_dir_node_count_mismatch_rejected(self, tmp_path):
        from repro.core.pipeline import PrivIMConfig, PrivIMStar
        from repro.errors import TrainingError

        build_shard_set(powerlaw_cluster_graph(60, 2, 0.2, rng=1), 2, rng=1).save(
            tmp_path
        )
        graph = powerlaw_cluster_graph(80, 2, 0.2, rng=2)
        pipeline = PrivIMStar(
            PrivIMConfig(
                epsilon=2.0,
                subgraph_size=6,
                iterations=2,
                shard_dir=str(tmp_path),
                rng=1,
            )
        )
        with pytest.raises(TrainingError, match="rebuild the shard set"):
            pipeline.fit(graph)
