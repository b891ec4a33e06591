"""Tests for the subgraph samplers and the occurrence-bound invariants."""

import numpy as np
import pytest

from repro.errors import SamplingError
from repro.sampling.container import (
    Subgraph,
    SubgraphContainer,
    SubgraphSource,
    accumulate_occurrence_counts,
)
from repro.sampling import (
    DualStageSamplingConfig,
    FrequencyVector,
    NaiveSamplingConfig,
    sample_dual_stage,
    sample_naive,
    sample_random_sets,
)
from repro.graphs.graph import Graph
from tests.oracles import (
    adaptive_neighbor_probabilities,
    frequency_walk,
    random_walk_nodes,
    walk_neighbors,
)


class TestContainer:
    def make_subgraph(self, graph, nodes):
        sub, node_map = graph.subgraph(nodes)
        return Subgraph(sub, node_map)

    def test_occurrence_counts(self, tiny_graph):
        container = SubgraphContainer()
        container.add(self.make_subgraph(tiny_graph, [0, 1]))
        container.add(self.make_subgraph(tiny_graph, [1, 2]))
        counts = container.occurrence_counts(5)
        assert counts.tolist() == [1, 2, 1, 0, 0]
        assert container.max_occurrence(5) == 2

    def test_coverage(self, tiny_graph):
        container = SubgraphContainer()
        container.add(self.make_subgraph(tiny_graph, [0, 1, 2]))
        assert container.coverage(5) == pytest.approx(0.6)

    def test_empty_container(self):
        container = SubgraphContainer()
        assert len(container) == 0
        assert container.max_occurrence(5) == 0

    def test_sample_batch(self, tiny_graph, rng):
        container = SubgraphContainer(
            [self.make_subgraph(tiny_graph, [i]) for i in range(5)]
        )
        batch = container.sample_batch(3, rng)
        assert len(batch) == 3
        assert len({id(s) for s in batch}) == 3  # without replacement

    def test_sample_batch_too_large(self, tiny_graph):
        container = SubgraphContainer([self.make_subgraph(tiny_graph, [0])])
        with pytest.raises(SamplingError):
            container.sample_batch(2)

    def test_extend(self, tiny_graph):
        first = SubgraphContainer([self.make_subgraph(tiny_graph, [0])])
        second = SubgraphContainer([self.make_subgraph(tiny_graph, [1])])
        first.extend(second)
        assert len(first) == 2

    def test_node_map_length_checked(self, tiny_graph):
        sub, _ = tiny_graph.subgraph([0, 1])
        with pytest.raises(SamplingError):
            Subgraph(sub, np.array([0]))

    def test_node_map_duplicates_rejected(self, tiny_graph):
        sub, _ = tiny_graph.subgraph([0, 1])
        with pytest.raises(SamplingError, match="duplicate"):
            Subgraph(sub, np.array([3, 3]))

    def test_occurrence_counts_handles_duplicate_ids_in_one_map(self, tiny_graph):
        # Regression: the old fancy-index accumulation (counts[map] += 1)
        # counted a node appearing twice in one node_map only once.
        # Subgraph.__init__ now rejects such maps, but the audit itself
        # must stay duplicate-proof: smuggle one in via the slot.
        subgraph = self.make_subgraph(tiny_graph, [0, 1])
        subgraph.node_map = np.array([2, 2], dtype=np.int64)
        container = SubgraphContainer([subgraph])
        counts = container.occurrence_counts(5)
        assert counts.tolist() == [0, 0, 2, 0, 0]
        assert container.max_occurrence(5) == 2

    def test_accumulate_occurrence_counts_matches_naive(self, rng):
        maps = [rng.integers(0, 50, size=int(n)) for n in rng.integers(0, 40, size=200)]
        expected = np.zeros(50, dtype=np.int64)
        for node_map in maps:
            for node in node_map:
                expected[node] += 1
        got = accumulate_occurrence_counts(maps, 50)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, expected)

    def test_accumulate_occurrence_counts_batches_across_flush(self):
        # Force multiple bincount flushes (threshold is 64Ki ids).
        maps = [np.full(5000, 7, dtype=np.int64) for _ in range(20)]
        counts = accumulate_occurrence_counts(maps, 10)
        assert counts[7] == 100_000
        assert counts.sum() == 100_000

    def test_container_is_subgraph_source(self):
        assert isinstance(SubgraphContainer(), SubgraphSource)
        assert SubgraphContainer.in_memory is True

    def test_sample_batch_full_pool_is_drawn_permutation(self, tiny_graph):
        # batch_size == len(container) must return a permutation of the
        # whole pool AND consume the generator exactly like any other
        # batch — a shortcut copy would desynchronise interleaved
        # full-pool and partial draws.
        container = SubgraphContainer(
            [self.make_subgraph(tiny_graph, [i]) for i in range(5)]
        )
        batch = container.sample_batch(5, np.random.default_rng(1234))
        assert {id(s) for s in batch} == {id(s) for s in container}
        # Same state, drawn directly: proves the generator was consumed
        # by choice() rather than short-circuited.
        direct = np.random.default_rng(1234).choice(5, size=5, replace=False)
        assert [container[int(i)] for i in direct] == batch

    def test_sample_batch_golden_picks(self, tiny_graph):
        # Golden picks pin the numpy Generator.choice stream (NEP 19
        # stability) for the CI-pinned numpy versions; a silent stream
        # change would break every resumed checkpoint's bit-identity.
        container = SubgraphContainer(
            [self.make_subgraph(tiny_graph, [i % 5]) for i in range(8)]
        )
        generator = np.random.default_rng(1234)
        first = container.sample_batch(3, generator)
        second = container.sample_batch(3, generator)
        assert [container._subgraphs.index(s) for s in first] == [7, 5, 6]
        assert [container._subgraphs.index(s) for s in second] == [0, 2, 5]

    def test_sample_batch_after_extend_is_deterministic(self, tiny_graph):
        # extend() mid-stream changes len(pool) and therefore the picks —
        # deliberately: two runs doing the same mutation still agree.
        def run():
            container = SubgraphContainer(
                [self.make_subgraph(tiny_graph, [i]) for i in range(4)]
            )
            generator = np.random.default_rng(99)
            picks = [container._subgraphs.index(s) for s in container.sample_batch(2, generator)]
            extra = SubgraphContainer([self.make_subgraph(tiny_graph, [4])])
            container.extend(extra)
            picks += [container._subgraphs.index(s) for s in container.sample_batch(2, generator)]
            return picks

        assert run() == run()


class TestRandomWalk:
    def test_collects_exact_size(self, social_graph, rng):
        nodes = random_walk_nodes(
            social_graph, 0, 10, walk_length=500, restart_probability=0.3, rng=rng
        )
        assert nodes is not None
        assert len(nodes) == 10
        assert len(set(nodes)) == 10
        assert nodes[0] == 0

    def test_returns_none_when_budget_too_small(self, social_graph):
        result = random_walk_nodes(
            social_graph, 0, 50, walk_length=5, restart_probability=0.0, rng=0
        )
        assert result is None

    def test_respects_allowed_set(self, social_graph, rng):
        allowed = set(range(20))
        nodes = random_walk_nodes(
            social_graph,
            0,
            5,
            walk_length=500,
            restart_probability=0.3,
            rng=rng,
            allowed=allowed,
        )
        if nodes is not None:
            assert set(nodes) <= allowed | {0}

    def test_target_one_returns_start(self, social_graph):
        assert random_walk_nodes(
            social_graph, 3, 1, walk_length=10, restart_probability=0.3, rng=0
        ) == [3]

    def test_isolated_start_fails(self):
        graph = Graph(3, [(1, 2)])
        result = random_walk_nodes(
            graph, 0, 2, walk_length=50, restart_probability=0.3, rng=0
        )
        assert result is None

    def test_walk_neighbors_directions(self, tiny_graph):
        assert sorted(walk_neighbors(tiny_graph, 2, "out")) == [3]
        assert sorted(walk_neighbors(tiny_graph, 2, "in")) == [0, 1]
        assert sorted(walk_neighbors(tiny_graph, 2, "both")) == [0, 1, 3]
        with pytest.raises(SamplingError):
            walk_neighbors(tiny_graph, 2, "backwards")

    def test_validation(self, tiny_graph):
        with pytest.raises(SamplingError):
            random_walk_nodes(tiny_graph, 99, 2, walk_length=10, restart_probability=0.3)
        with pytest.raises(SamplingError):
            random_walk_nodes(tiny_graph, 0, 0, walk_length=10, restart_probability=0.3)
        with pytest.raises(SamplingError):
            random_walk_nodes(tiny_graph, 0, 2, walk_length=0, restart_probability=0.3)
        with pytest.raises(SamplingError):
            random_walk_nodes(tiny_graph, 0, 2, walk_length=10, restart_probability=1.0)


class TestNaiveSampling:
    def test_subgraphs_have_requested_size(self, clustered_graph):
        config = NaiveSamplingConfig(
            theta=10, subgraph_size=12, hops=3, sampling_rate=0.5, walk_length=300
        )
        container = sample_naive(clustered_graph, config, rng=0).container
        assert len(container) > 0
        assert all(sub.num_nodes == 12 for sub in container)

    def test_subgraph_in_degrees_bounded(self, clustered_graph):
        """Subgraphs are induced on the θ-projected rows, so none has a
        node with more than θ in-arcs."""
        config = NaiveSamplingConfig(theta=4, subgraph_size=8, sampling_rate=0.3)
        container = sample_naive(clustered_graph, config, rng=0).container
        assert len(container) > 0
        assert all(sub.graph.in_degrees().max() <= 4 for sub in container)

    def test_occurrences_bounded_by_lemma1(self, clustered_graph):
        from repro.dp.sensitivity import max_occurrences_naive

        config = NaiveSamplingConfig(
            theta=5, subgraph_size=10, hops=2, sampling_rate=1.0, walk_length=300
        )
        container = sample_naive(clustered_graph, config, rng=0).container
        bound = max_occurrences_naive(5, 2)
        assert container.max_occurrence(clustered_graph.num_nodes) <= bound

    def test_zero_rate_yields_nothing(self, clustered_graph):
        config = NaiveSamplingConfig(sampling_rate=1e-9, subgraph_size=5)
        container = sample_naive(clustered_graph, config, rng=0).container
        assert len(container) == 0

    def test_deterministic(self, clustered_graph):
        config = NaiveSamplingConfig(subgraph_size=8, sampling_rate=0.3)
        first = sample_naive(clustered_graph, config, rng=5).container
        second = sample_naive(clustered_graph, config, rng=5).container
        assert len(first) == len(second)
        for a, b in zip(first, second):
            assert np.array_equal(a.node_map, b.node_map)

    def test_config_validation(self):
        with pytest.raises(SamplingError):
            NaiveSamplingConfig(theta=0).validate()
        with pytest.raises(SamplingError):
            NaiveSamplingConfig(sampling_rate=0.0).validate()
        with pytest.raises(SamplingError):
            NaiveSamplingConfig(restart_probability=1.0).validate()
        with pytest.raises(SamplingError, match="direction"):
            NaiveSamplingConfig(direction="backwards").validate()


class TestFrequencyMachinery:
    def test_eq9_probabilities(self):
        probabilities = adaptive_neighbor_probabilities(
            np.array([0, 1, 3]), threshold=10, decay=1.0
        )
        expected = np.array([1.0, 0.5, 0.25])
        expected /= expected.sum()
        np.testing.assert_allclose(probabilities, expected)

    def test_eq9_saturated_nodes_zeroed(self):
        probabilities = adaptive_neighbor_probabilities(
            np.array([0, 5]), threshold=5, decay=1.0
        )
        assert probabilities[1] == 0.0
        assert probabilities.sum() == pytest.approx(1.0)

    def test_eq9_all_saturated(self):
        probabilities = adaptive_neighbor_probabilities(
            np.array([5, 5]), threshold=5, decay=1.0
        )
        np.testing.assert_allclose(probabilities, 0.0)

    def test_eq9_decay_zero_uniform(self):
        probabilities = adaptive_neighbor_probabilities(
            np.array([0, 4]), threshold=10, decay=0.0
        )
        np.testing.assert_allclose(probabilities, [0.5, 0.5])

    def test_frequency_vector_record(self):
        frequency = FrequencyVector(4, threshold=2)
        frequency.record_subgraph(np.array([0, 1]))
        frequency.record_subgraph(np.array([0]))
        assert frequency.value(0) == 2
        assert frequency.is_saturated(0)
        assert not frequency.is_saturated(1)
        assert list(frequency.saturated_nodes()) == [0]
        assert sorted(frequency.available_nodes()) == [1, 2, 3]

    def test_record_past_threshold_raises(self):
        frequency = FrequencyVector(2, threshold=1)
        frequency.record_subgraph(np.array([0]))
        with pytest.raises(SamplingError):
            frequency.record_subgraph(np.array([0]))

    def test_frequency_walk_avoids_saturated(self, clustered_graph):
        frequency = FrequencyVector(clustered_graph.num_nodes, threshold=3)
        # Saturate a band of nodes; walks must never visit them.
        saturated = np.arange(50, 100)
        frequency.counts[saturated] = 3
        nodes = frequency_walk(
            clustered_graph,
            frequency,
            0,
            8,
            walk_length=400,
            restart_probability=0.3,
            decay=1.0,
            rng=0,
        )
        if nodes is not None:
            assert not (set(nodes) & set(saturated.tolist()))

    def test_validation(self):
        with pytest.raises(SamplingError):
            FrequencyVector(3, threshold=0)
        with pytest.raises(SamplingError):
            adaptive_neighbor_probabilities(np.array([0]), 5, decay=-1.0)


class TestDualStage:
    def test_threshold_invariant(self, clustered_graph):
        config = DualStageSamplingConfig(
            subgraph_size=10, threshold=3, sampling_rate=1.0, walk_length=300
        )
        result = sample_dual_stage(clustered_graph, config, rng=0)
        assert result.container.max_occurrence(clustered_graph.num_nodes) <= 3
        assert result.frequency.max_frequency() <= 3

    def test_frequency_matches_container_counts(self, clustered_graph):
        config = DualStageSamplingConfig(
            subgraph_size=10, threshold=4, sampling_rate=0.8, walk_length=300
        )
        result = sample_dual_stage(clustered_graph, config, rng=1)
        counts = result.container.occurrence_counts(clustered_graph.num_nodes)
        np.testing.assert_array_equal(counts, result.frequency.counts)

    def test_stage2_smaller_subgraphs(self, clustered_graph):
        config = DualStageSamplingConfig(
            subgraph_size=12,
            threshold=2,
            sampling_rate=1.0,
            walk_length=300,
            boundary_divisor=3,
        )
        result = sample_dual_stage(clustered_graph, config, rng=0)
        if result.stage2_count:
            stage2 = list(result.container)[result.stage1_count :]
            assert all(sub.num_nodes == config.boundary_subgraph_size for sub in stage2)

    def test_scs_only_mode(self, clustered_graph):
        config = DualStageSamplingConfig(
            subgraph_size=10, threshold=3, sampling_rate=0.8, include_boundary=False
        )
        result = sample_dual_stage(clustered_graph, config, rng=0)
        assert result.stage2_count == 0
        assert len(result.container) == result.stage1_count

    def test_bes_adds_subgraphs(self, clustered_graph):
        base = DualStageSamplingConfig(
            subgraph_size=10, threshold=2, sampling_rate=1.0, walk_length=300
        )
        with_bes = sample_dual_stage(clustered_graph, base, rng=3)
        scs_only = DualStageSamplingConfig(
            subgraph_size=10,
            threshold=2,
            sampling_rate=1.0,
            walk_length=300,
            include_boundary=False,
        )
        without = sample_dual_stage(clustered_graph, scs_only, rng=3)
        assert len(with_bes.container) >= len(without.container)

    def test_config_validation(self):
        with pytest.raises(SamplingError):
            DualStageSamplingConfig(threshold=0).validate()
        with pytest.raises(SamplingError):
            DualStageSamplingConfig(boundary_divisor=0).validate()
        with pytest.raises(SamplingError):
            DualStageSamplingConfig(decay=-0.5).validate()
        with pytest.raises(SamplingError, match="direction"):
            DualStageSamplingConfig(direction="backwards").validate()

    def test_boundary_subgraph_size_floor(self):
        config = DualStageSamplingConfig(subgraph_size=3, boundary_divisor=10)
        assert config.boundary_subgraph_size == 2


class TestRandomSets:
    def test_count_and_size(self, clustered_graph):
        container = sample_random_sets(clustered_graph, 15, 10, rng=0)
        assert len(container) == 10
        assert all(sub.num_nodes == 15 for sub in container)

    def test_nodes_are_distinct_within_subgraph(self, clustered_graph):
        container = sample_random_sets(clustered_graph, 15, 5, rng=0)
        for sub in container:
            assert len(np.unique(sub.node_map)) == 15

    def test_validation(self, clustered_graph):
        with pytest.raises(SamplingError):
            sample_random_sets(clustered_graph, 0, 5)
        with pytest.raises(SamplingError):
            sample_random_sets(clustered_graph, 10_000, 5)
        with pytest.raises(SamplingError):
            sample_random_sets(clustered_graph, 5, -1)


class TestDiagnostics:
    def test_diagnose_container(self, clustered_graph):
        from repro.sampling.diagnostics import diagnose_container, render_diagnostics

        config = DualStageSamplingConfig(
            subgraph_size=10, threshold=4, sampling_rate=0.8, walk_length=300
        )
        result = sample_dual_stage(clustered_graph, config, rng=0)
        diagnostics = diagnose_container(
            result.container, clustered_graph.num_nodes, occurrence_bound=4
        )
        assert diagnostics.num_subgraphs == len(result.container)
        assert diagnostics.max_size <= 10
        assert diagnostics.max_occurrence <= 4
        assert diagnostics.bound_utilisation <= 1.0
        assert sum(diagnostics.occurrence_histogram) == clustered_graph.num_nodes
        text = render_diagnostics(diagnostics)
        assert "bound utilisation" in text
        assert "coverage" in text

    def test_diagnose_validation(self, clustered_graph):
        from repro.sampling.diagnostics import diagnose_container

        with pytest.raises(SamplingError):
            diagnose_container(SubgraphContainer(), 10)
        config = DualStageSamplingConfig(subgraph_size=5, sampling_rate=0.5)
        result = sample_dual_stage(clustered_graph, config, rng=0)
        with pytest.raises(SamplingError):
            diagnose_container(result.container, 0)
        with pytest.raises(SamplingError):
            diagnose_container(
                result.container, clustered_graph.num_nodes, occurrence_bound=0
            )
