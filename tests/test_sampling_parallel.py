"""Engine-vs-oracle equivalence tests for the sampling engine.

Every sampler runs on the shard coordinator: the flat entry points hand
it the graph as one in-process shard, the sharded ones an edge-cut shard
set.  The contract is that for a fixed seed every layout reproduces the
serial oracle of :mod:`tests.oracles` bit for bit (same subgraphs, same
order, same node maps, same edges), so the shard count is a pure memory
layout.
"""

import numpy as np
import pytest

from repro.errors import SamplingError
from repro.graphs.graph import Graph
from repro.sampling.dual_stage import (
    DualStageSamplingConfig,
    extract_subgraphs_dual_stage,
)
from repro.sampling.naive import NaiveSamplingConfig, extract_subgraphs_naive
from repro.sampling.parallel import (
    SamplingStats,
    sample_dual_stage,
    sample_naive,
)
from repro.sharding import (
    build_shard_set,
    sample_dual_stage_sharded,
    sample_naive_sharded,
)
from tests.oracles import serial_dual_stage, serial_naive

SHARD_COUNTS = [1, 2, 4]


def assert_containers_identical(first, second):
    """Bit-level equality of two subgraph containers."""
    assert len(first) == len(second)
    for a, b in zip(first, second):
        np.testing.assert_array_equal(a.node_map, b.node_map)
        assert a.graph == b.graph


def shards_for(graph, num_shards):
    """``num_shards`` shards of ``graph`` (empty shards where it has fewer
    nodes)."""
    if graph.num_nodes >= num_shards:
        return build_shard_set(graph, num_shards, rng=1)
    return build_shard_set(
        graph, num_shards, assignment=np.zeros(graph.num_nodes, dtype=np.int64)
    )


class TestNaiveEquivalence:
    CONFIG = NaiveSamplingConfig(subgraph_size=8, sampling_rate=0.5, walk_length=300)

    @pytest.fixture
    def reference(self, clustered_graph):
        oracle = serial_naive(clustered_graph, self.CONFIG, rng=7)
        assert len(oracle.container) > 0
        return oracle

    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_bit_identical_across_shard_counts(
        self, clustered_graph, reference, num_shards
    ):
        container, projected = extract_subgraphs_naive(
            clustered_graph, self.CONFIG, rng=7
        )
        assert_containers_identical(container, reference.container)
        assert projected == reference.projected
        run = sample_naive_sharded(
            shards_for(clustered_graph, num_shards), self.CONFIG, rng=7
        )
        assert_containers_identical(run.container, reference.container)
        assert run.stats.num_shards == num_shards

    def test_stats_identical_across_shard_counts(self, clustered_graph):
        config = NaiveSamplingConfig(subgraph_size=8, sampling_rate=0.5)
        oracle = serial_naive(clustered_graph, config, rng=3).stats
        runs = [sample_naive(clustered_graph, config, rng=3)] + [
            sample_naive_sharded(shards_for(clustered_graph, n), config, rng=3)
            for n in (1, 4)
        ]
        for run in runs:
            assert run.stats.walks_attempted == oracle.walks_attempted
            assert run.stats.walks_failed == oracle.walks_failed
            assert run.stats.starts_selected == oracle.starts_selected
            assert run.stats.subgraphs_emitted == len(run.container)


class TestDualStageEquivalence:
    CONFIG = DualStageSamplingConfig(
        subgraph_size=10, threshold=3, sampling_rate=1.0, walk_length=300
    )

    @pytest.fixture
    def reference(self, clustered_graph):
        oracle = serial_dual_stage(clustered_graph, self.CONFIG, rng=7)
        assert len(oracle.container) > 0
        return oracle

    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_bit_identical_across_shard_counts(
        self, clustered_graph, reference, num_shards
    ):
        flat = extract_subgraphs_dual_stage(clustered_graph, self.CONFIG, rng=7)
        sharded = sample_dual_stage_sharded(
            shards_for(clustered_graph, num_shards), self.CONFIG, rng=7
        )
        for result in (flat, sharded):
            assert_containers_identical(result.container, reference.container)
            assert result.stage1_count == reference.stage1_count
            assert result.stage2_count == reference.stage2_count
            np.testing.assert_array_equal(
                result.frequency.counts, reference.frequency.counts
            )

    def test_validation_counters_identical(self, clustered_graph):
        config = DualStageSamplingConfig(subgraph_size=10, threshold=2, sampling_rate=1.0)
        oracle = serial_dual_stage(clustered_graph, config, rng=11).stats
        for stats in (
            sample_dual_stage(clustered_graph, config, rng=11).stats,
            sample_dual_stage_sharded(
                shards_for(clustered_graph, 2), config, rng=11
            ).stats,
        ):
            assert stats.walks_attempted == oracle.walks_attempted
            assert stats.walks_rejected == oracle.walks_rejected
            assert stats.starts_skipped == oracle.starts_skipped
            assert stats.cap_hit_rate == oracle.cap_hit_rate

    def test_chunk_size_is_part_of_the_algorithm(self, clustered_graph):
        """Layouts must be compared at a fixed chunk size; the chunk size
        itself (snapshot granularity) may change which walks win."""
        small = DualStageSamplingConfig(
            subgraph_size=10, threshold=3, sampling_rate=1.0, chunk_size=1
        )
        result = extract_subgraphs_dual_stage(clustered_graph, small, rng=7)
        # chunk_size=1 refreshes the snapshot before every walk, so no
        # proposal can ever be stale enough to get cap-rejected.
        assert result.stats.walks_rejected == 0


class TestEdgeCases:
    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_empty_graph(self, num_shards):
        graph = Graph(0, [])
        container, _ = extract_subgraphs_naive(graph, NaiveSamplingConfig(), rng=0)
        assert len(container) == 0
        result = extract_subgraphs_dual_stage(graph, DualStageSamplingConfig(), rng=0)
        assert len(result.container) == 0
        shard_set = shards_for(graph, num_shards)
        naive = sample_naive_sharded(shard_set, NaiveSamplingConfig(), rng=0)
        assert len(naive.container) == 0
        dual = sample_dual_stage_sharded(shard_set, DualStageSamplingConfig(), rng=0)
        assert len(dual.container) == 0

    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_single_node_graph(self, num_shards):
        graph = Graph(1, [])
        shard_set = shards_for(graph, num_shards)
        naive = NaiveSamplingConfig(subgraph_size=1, sampling_rate=1.0)
        container, _ = extract_subgraphs_naive(graph, naive, rng=0)
        sharded = sample_naive_sharded(shard_set, naive, rng=0)
        for pool in (container, sharded.container):
            assert len(pool) == 1
            assert pool[0].node_map.tolist() == [0]

        dual = DualStageSamplingConfig(subgraph_size=1, sampling_rate=1.0)
        reference = serial_dual_stage(graph, dual, rng=0)
        for result in (
            extract_subgraphs_dual_stage(graph, dual, rng=0),
            sample_dual_stage_sharded(shard_set, dual, rng=0),
        ):
            assert result.container.max_occurrence(1) <= dual.threshold
            assert_containers_identical(result.container, reference.container)

    def test_shards_exceed_start_nodes(self, tiny_graph):
        """More shards than start nodes must neither hang nor diverge."""
        config = DualStageSamplingConfig(subgraph_size=2, sampling_rate=0.4)
        reference = serial_dual_stage(tiny_graph, config, rng=5)
        flooded = sample_dual_stage_sharded(shards_for(tiny_graph, 5), config, rng=5)
        assert flooded.stats.starts_selected < flooded.stats.num_shards
        assert_containers_identical(flooded.container, reference.container)

    @pytest.mark.parametrize(
        "sampler, config",
        [
            (sample_naive_sharded, NaiveSamplingConfig()),
            (sample_dual_stage_sharded, DualStageSamplingConfig()),
        ],
        ids=["naive", "dual_stage"],
    )
    def test_multiple_workers_rejected(self, clustered_graph, sampler, config):
        """Every shard is hosted in process: ``workers`` accepts only 1."""
        with pytest.raises(SamplingError, match="multi-process shard hosting"):
            sampler(shards_for(clustered_graph, 2), config, rng=0, workers=2)

    def test_config_validation(self):
        with pytest.raises(SamplingError):
            NaiveSamplingConfig(chunk_size=0).validate()
        with pytest.raises(SamplingError):
            DualStageSamplingConfig(chunk_size=0).validate()


class TestStats:
    def test_cap_hit_rate_zero_when_no_walks(self):
        assert SamplingStats().cap_hit_rate == 0.0

    def test_accounting_is_consistent(self, clustered_graph):
        run = sample_dual_stage(
            clustered_graph,
            DualStageSamplingConfig(subgraph_size=10, threshold=2, sampling_rate=1.0),
            rng=0,
        )
        stats = run.stats
        assert stats.starts_selected == (
            stats.starts_skipped + stats.walks_attempted
        )
        assert stats.walks_attempted == (
            stats.walks_failed + stats.walks_rejected + stats.subgraphs_emitted
        )
        assert stats.subgraphs_emitted == len(run.container)
        assert "stage1" in stats.stage_seconds
        assert stats.total_seconds >= 0.0

    def test_stage_seconds_always_has_both_keys(self, clustered_graph):
        """Regression: SCS-only configs used to leave ``stage2`` out of
        ``stage_seconds`` entirely, so timing consumers needed defensive
        ``.get`` calls.  Both keys are now always present (0.0 if skipped)."""
        with_boundary = sample_dual_stage(
            clustered_graph,
            DualStageSamplingConfig(subgraph_size=10, threshold=2, sampling_rate=1.0),
            rng=0,
        ).stats
        scs_only = sample_dual_stage(
            clustered_graph,
            DualStageSamplingConfig(
                subgraph_size=10,
                threshold=2,
                sampling_rate=1.0,
                include_boundary=False,
            ),
            rng=0,
        ).stats
        for stats in (with_boundary, scs_only):
            assert set(stats.stage_seconds) == {"stage1", "stage2"}
            assert all(s >= 0.0 for s in stats.stage_seconds.values())
        assert scs_only.stage_seconds["stage2"] == 0.0
        assert with_boundary.stage_seconds["stage2"] > 0.0

    def test_render_sampling_stats(self, clustered_graph):
        from repro.sampling.diagnostics import render_sampling_stats

        run = sample_dual_stage(
            clustered_graph,
            DualStageSamplingConfig(subgraph_size=10, threshold=3, sampling_rate=0.8),
            rng=0,
        )
        text = render_sampling_stats(run.stats)
        assert "cap-hit rate" in text
        assert "shards" in text
        assert "stage wall time" in text
