"""Property tests for the occurrence bounds the privacy accounting rests on.

Lemma 1: the naive sampler (Algorithm 1, out-directed walks on the
θ-in-bounded graph) never lets a node join more than ``N_g = Σ_{i=0..r} θ^i``
subgraphs.  Algorithm 3's frequency cap gives the hard bound ``N_g* = M``.
These invariants must hold for *every* graph, config, and seed — and, for
the dual-stage sampler, every shard layout — so hypothesis drives random
graphs and configs through the flat samplers and through two-shard sets.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.dp.accountant import PrivacyAccountant, calibrate_sigma
from repro.dp.sensitivity import max_occurrences_dual_stage, max_occurrences_naive
from repro.graphs.graph import Graph
from repro.sampling import (
    DualStageSamplingConfig,
    NaiveSamplingConfig,
    sample_dual_stage,
    sample_naive,
)
from repro.sharding import build_shard_set, sample_dual_stage_sharded


def random_graph(seed: int, num_nodes: int, num_edges: int) -> Graph:
    rng = np.random.default_rng(seed)
    pairs = rng.integers(0, num_nodes, size=(num_edges, 2))
    edges = sorted({(int(u), int(v)) for u, v in pairs if u != v})
    return Graph(num_nodes, np.asarray(edges or [(0, 1 % num_nodes)], dtype=np.int64))


graph_params = st.tuples(
    st.integers(0, 10_000),  # seed
    st.integers(2, 70),      # nodes
    st.integers(1, 220),     # edge draws
)


class TestNaiveOccurrenceBound:
    @settings(max_examples=12, deadline=None)
    @given(
        params=graph_params,
        theta=st.integers(1, 8),
        hops=st.integers(1, 3),
        subgraph_size=st.integers(2, 10),
    )
    def test_lemma1_holds_for_all_engines(self, params, theta, hops, subgraph_size):
        seed, num_nodes, num_edges = params
        graph = random_graph(seed, num_nodes, num_edges)
        config = NaiveSamplingConfig(
            theta=theta,
            subgraph_size=subgraph_size,
            hops=hops,
            sampling_rate=1.0,
            walk_length=120,
            chunk_size=8,
        )
        container = sample_naive(graph, config, rng=seed).container
        bound = max_occurrences_naive(theta, hops)
        assert container.max_occurrence(graph.num_nodes) <= bound
        # Subgraphs are induced on the θ-projected rows.
        for subgraph in container:
            assert subgraph.graph.in_degrees().max(initial=0) <= theta


class TestDualStageOccurrenceBound:
    @settings(max_examples=12, deadline=None)
    @given(
        params=graph_params,
        threshold=st.integers(1, 5),
        subgraph_size=st.integers(2, 12),
        decay=st.floats(0.0, 3.0),
        chunk_size=st.integers(1, 64),
        num_shards=st.sampled_from([1, 2]),
    )
    def test_cap_m_holds_for_all_engines(
        self, params, threshold, subgraph_size, decay, chunk_size, num_shards
    ):
        seed, num_nodes, num_edges = params
        graph = random_graph(seed, num_nodes, num_edges)
        config = DualStageSamplingConfig(
            subgraph_size=subgraph_size,
            threshold=threshold,
            decay=decay,
            sampling_rate=1.0,
            walk_length=120,
            chunk_size=chunk_size,
        )
        if num_shards == 1:
            result = sample_dual_stage(graph, config, rng=seed)
        else:
            result = sample_dual_stage_sharded(
                build_shard_set(graph, num_shards, rng=seed), config, rng=seed
            )
        bound = max_occurrences_dual_stage(threshold)
        assert result.container.max_occurrence(graph.num_nodes) <= bound
        assert result.frequency.max_frequency() <= threshold
        # The container and the frequency vector must agree exactly — the
        # accountant trusts the vector, the model trains on the container.
        np.testing.assert_array_equal(
            result.container.occurrence_counts(graph.num_nodes),
            result.frequency.counts,
        )

    @settings(max_examples=8, deadline=None)
    @given(params=graph_params, threshold=st.integers(1, 4))
    def test_rejected_walks_never_leak_into_the_pool(self, params, threshold):
        """Cap-rejected proposals must leave no trace in the output: every
        emitted subgraph respects M even when the rejection path fires."""
        seed, num_nodes, num_edges = params
        graph = random_graph(seed, num_nodes, num_edges)
        config = DualStageSamplingConfig(
            subgraph_size=4,
            threshold=threshold,
            sampling_rate=1.0,
            walk_length=80,
            chunk_size=64,  # large chunks -> maximally stale snapshots
        )
        result = sample_dual_stage(graph, config, rng=seed)
        stats = result.stats
        assert stats.subgraphs_emitted == len(result.container)
        assert result.container.max_occurrence(graph.num_nodes) <= threshold
        # Accounting identity: every attempted walk is settled exactly once.
        assert stats.walks_attempted == (
            stats.walks_failed + stats.walks_rejected + stats.subgraphs_emitted
        )


accountant_params = st.tuples(
    st.floats(0.4, 4.0),     # sigma
    st.integers(1, 12),      # batch size B
    st.integers(0, 150),     # extra container size beyond B
    st.integers(1, 6),       # occurrence bound N_g
)


class TestAccountantInvariants:
    """ε-accounting monotonicity — the properties crash-safe resume relies
    on: restoring `steps` restores ε exactly, and ε only ever grows with
    recorded steps and shrinks with noise."""

    @settings(max_examples=15, deadline=None)
    @given(
        params=accountant_params,
        steps=st.integers(1, 40),
        extra_steps=st.integers(1, 40),
        delta=st.floats(1e-6, 1e-3),
    )
    def test_epsilon_nondecreasing_in_steps(self, params, steps, extra_steps, delta):
        sigma, batch_size, extra, occurrences = params
        accountant = PrivacyAccountant(sigma, batch_size, batch_size + extra, occurrences)
        accountant.step(steps)
        first = accountant.epsilon(delta)
        accountant.step(extra_steps)
        assert accountant.epsilon(delta) >= first - 1e-12

    @settings(max_examples=15, deadline=None)
    @given(
        params=accountant_params,
        sigma_increase=st.floats(0.1, 5.0),
        steps=st.integers(1, 40),
        delta=st.floats(1e-6, 1e-3),
    )
    def test_epsilon_nonincreasing_in_sigma(self, params, sigma_increase, steps, delta):
        sigma, batch_size, extra, occurrences = params
        num_subgraphs = batch_size + extra

        def epsilon_at(noise):
            accountant = PrivacyAccountant(noise, batch_size, num_subgraphs, occurrences)
            accountant.step(steps)
            return accountant.epsilon(delta)

        assert epsilon_at(sigma + sigma_increase) <= epsilon_at(sigma) + 1e-9

    @settings(max_examples=15, deadline=None)
    @given(
        params=accountant_params,
        steps=st.integers(2, 40),
        delta=st.floats(1e-6, 1e-3),
    )
    def test_restored_steps_restore_epsilon_exactly(self, params, steps, delta):
        """The checkpoint/resume contract: an accountant rebuilt with the
        same parameters and restored `steps` reports the identical ε."""
        sigma, batch_size, extra, occurrences = params
        original = PrivacyAccountant(sigma, batch_size, batch_size + extra, occurrences)
        original.step(steps)
        restored = PrivacyAccountant(sigma, batch_size, batch_size + extra, occurrences)
        restored.steps = original.steps
        assert restored.epsilon(delta) == original.epsilon(delta)

    @settings(max_examples=10, deadline=None)
    @given(
        target=st.floats(0.5, 8.0),
        batch_size=st.integers(1, 12),
        extra=st.integers(4, 150),
        occurrences=st.integers(1, 6),
        steps=st.integers(5, 60),
        delta=st.floats(1e-5, 1e-3),
    )
    def test_calibrate_sigma_round_trips_to_target(
        self, target, batch_size, extra, occurrences, steps, delta
    ):
        num_subgraphs = batch_size + extra
        sigma = calibrate_sigma(
            target, delta, steps=steps, batch_size=batch_size,
            num_subgraphs=num_subgraphs, max_occurrences=occurrences,
        )
        accountant = PrivacyAccountant(sigma, batch_size, num_subgraphs, occurrences)
        accountant.step(steps)
        achieved = accountant.epsilon(delta)
        assert achieved <= target + 1e-6
        # Tight unless bisection bottomed out at its lower bracket (the
        # target was unreachably loose for any meaningful noise).
        if sigma > 0.011:
            assert achieved >= 0.9 * target
