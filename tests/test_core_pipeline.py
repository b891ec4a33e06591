"""Tests for the PrivIM / PrivIM* pipelines and seed selection."""

import os

import numpy as np
import pytest

from repro.core.pipeline import PrivIM, PrivIMConfig, PrivIMStar, non_private_config
from repro.core.seed_selection import score_nodes, select_top_k_seeds, top_k_by_score
from repro.baselines.nonprivate import NonPrivatePipeline
from repro.errors import SamplingError, TrainingError
from repro.gnn.models import build_gnn
from repro.graphs.generators import powerlaw_cluster_graph


@pytest.fixture(scope="module")
def graph():
    return powerlaw_cluster_graph(200, 3, 0.3, rng=21)


def fast_config(**overrides):
    defaults = dict(
        epsilon=4.0,
        subgraph_size=10,
        threshold=4,
        iterations=5,
        batch_size=4,
        sampling_rate=0.6,
        hidden_features=8,
        num_layers=2,
        walk_length=200,
        rng=5,
    )
    defaults.update(overrides)
    return PrivIMConfig(**defaults)


class TestPrivIMStar:
    def test_fit_result_fields(self, graph):
        pipeline = PrivIMStar(fast_config())
        result = pipeline.fit(graph)
        assert result.num_subgraphs > 0
        assert result.max_occurrences == 4
        assert result.empirical_max_occurrence <= 4
        assert result.sigma > 0
        assert result.epsilon <= 4.0 + 1e-6
        assert 0 < result.delta < 1
        assert result.history.iterations == 5
        assert result.preprocessing_seconds > 0

    def test_select_seeds(self, graph):
        pipeline = PrivIMStar(fast_config())
        pipeline.fit(graph)
        seeds = pipeline.select_seeds(graph, 10)
        assert len(set(seeds)) == 10
        assert all(0 <= s < graph.num_nodes for s in seeds)

    def test_select_before_fit_raises(self, graph):
        with pytest.raises(TrainingError):
            PrivIMStar(fast_config()).select_seeds(graph, 5)
        with pytest.raises(TrainingError):
            PrivIMStar(fast_config()).score_nodes(graph)

    def test_scs_only_has_no_stage2(self, graph):
        pipeline = PrivIMStar(fast_config(), include_boundary=False)
        result = pipeline.fit(graph)
        assert result.stage2_count == 0
        assert pipeline.method_name == "PrivIM+SCS"

    def test_nonprivate_mode(self, graph):
        pipeline = PrivIMStar(fast_config(epsilon=None))
        result = pipeline.fit(graph)
        assert result.sigma == 0.0
        assert result.epsilon == float("inf")
        # ε = ∞ means no noise AND no clipping (trainer's documented
        # non-private mode) — clipping would bias the upper reference.
        assert result.clip_bound is None

    def test_private_mode_keeps_configured_clip_bound(self, graph):
        config = fast_config()
        result = PrivIMStar(config).fit(graph)
        assert result.clip_bound == config.clip_bound

    def test_seeds_deterministic_given_seed(self, graph):
        first = PrivIMStar(fast_config())
        first.fit(graph)
        second = PrivIMStar(fast_config())
        second.fit(graph)
        assert first.select_seeds(graph, 5) == second.select_seeds(graph, 5)

    def test_smaller_epsilon_more_noise(self, graph):
        tight = PrivIMStar(fast_config(epsilon=1.0))
        loose = PrivIMStar(fast_config(epsilon=6.0))
        assert tight.fit(graph).sigma > loose.fit(graph).sigma


class TestPoolSafety:
    """``fit`` audits every pool against N_g and releases what it opened."""

    @pytest.mark.parametrize("spill", [False, True], ids=["memory", "store"])
    def test_occurrence_bound_violation_raises(
        self, graph, tmp_path, monkeypatch, spill
    ):
        import repro.core.pipeline as pipeline_module

        monkeypatch.setattr(
            pipeline_module, "max_occurrences_dual_stage", lambda threshold: 0
        )
        store_path = str(tmp_path / "pool") if spill else None
        with pytest.raises(SamplingError, match="occurrence bound"):
            PrivIMStar(fast_config(subgraph_store=store_path)).fit(graph)
        assert not os.path.exists(tmp_path / "pool")

    def test_calibration_failure_closes_store(self, graph, tmp_path, monkeypatch):
        import repro.core.pipeline as pipeline_module
        from repro.sampling.store import SubgraphStoreWriter

        opened = []
        finalize = SubgraphStoreWriter.finalize

        def recording_finalize(writer):
            opened.append(finalize(writer))
            return opened[-1]

        def failing_calibration(*args, **kwargs):
            raise RuntimeError("calibration failed")

        monkeypatch.setattr(SubgraphStoreWriter, "finalize", recording_finalize)
        monkeypatch.setattr(pipeline_module, "calibrate_sigma", failing_calibration)
        config = fast_config(subgraph_store=str(tmp_path / "pool"))
        with pytest.raises(RuntimeError, match="calibration failed"):
            PrivIMStar(config).fit(graph)
        (store,) = opened
        with pytest.raises(SamplingError, match="closed"):
            store[0]


class TestPrivIMNaive:
    def test_uses_lemma1_bound(self, graph):
        pipeline = PrivIM(fast_config(theta=3, num_layers=2, subgraph_size=6))
        result = pipeline.fit(graph)
        assert result.max_occurrences == 1 + 3 + 9
        assert result.empirical_max_occurrence <= result.max_occurrences
        assert result.stage2_count == 0

    def test_method_name(self):
        assert PrivIM(fast_config()).method_name == "PrivIM"
        assert PrivIMStar(fast_config()).method_name == "PrivIM*"
        assert NonPrivatePipeline(fast_config()).method_name == "Non-Private"


class TestConfigHelpers:
    def test_resolved_sampling_rate_default_is_paper_rule(self):
        config = PrivIMConfig()
        assert config.resolved_sampling_rate(1000) == pytest.approx(0.256)
        assert config.resolved_sampling_rate(100) == 1.0

    def test_resolved_delta_default(self):
        config = PrivIMConfig()
        assert config.resolved_delta(1000) == pytest.approx(1.0 / 2000)
        assert PrivIMConfig(delta=1e-6).resolved_delta(1000) == 1e-6

    def test_non_private_config_helper(self):
        config = non_private_config(PrivIMConfig(epsilon=3.0))
        assert config.epsilon is None

    def test_empty_sampling_raises_helpful_error(self):
        lonely = powerlaw_cluster_graph(30, 2, 0.1, rng=0)
        pipeline = PrivIMStar(fast_config(subgraph_size=29, sampling_rate=1e-9))
        with pytest.raises(TrainingError, match="no subgraphs"):
            pipeline.fit(lonely)


class TestSeedSelection:
    def test_top_k_matches_scores(self, graph):
        model = build_gnn("gcn", hidden_features=8, num_layers=2, rng=0)
        scores = score_nodes(model, graph)
        seeds = select_top_k_seeds(model, graph, 5)
        expected = list(np.argsort(-scores, kind="stable")[:5])
        assert seeds == [int(e) for e in expected]

    def test_scores_are_probabilities(self, graph):
        model = build_gnn("grat", hidden_features=8, num_layers=2, rng=0)
        scores = score_nodes(model, graph)
        assert scores.shape == (graph.num_nodes,)
        assert np.all((scores >= 0) & (scores <= 1))

    def test_k_validation(self, graph):
        model = build_gnn("gcn", hidden_features=8, num_layers=2, rng=0)
        with pytest.raises(TrainingError):
            select_top_k_seeds(model, graph, 0)
        with pytest.raises(TrainingError):
            select_top_k_seeds(model, graph, graph.num_nodes + 1)


class TestTieBreaking:
    """Regression: a plain stable argsort on ``-scores`` sent every tie to
    the lowest node ids, so a plateaued model always 'selected' nodes
    0..k-1 regardless of graph structure."""

    def test_constant_scores_not_biased_to_low_ids(self):
        scores = np.full(200, 0.5)
        seeds = top_k_by_score(scores, 10)
        # With ties broken uniformly, getting exactly {0..9} has
        # probability 1 / C(200, 10) ~ 4e-17 — seeing it means the bias
        # is back.
        assert set(seeds) != set(range(10))

    def test_default_tie_break_is_deterministic(self):
        scores = np.full(50, 1.0)
        assert top_k_by_score(scores, 5) == top_k_by_score(scores, 5)

    def test_explicit_rng_reproducible_and_varies(self):
        scores = np.full(100, 0.25)
        first = top_k_by_score(scores, 8, rng=1)
        again = top_k_by_score(scores, 8, rng=1)
        other = top_k_by_score(scores, 8, rng=2)
        assert first == again
        assert set(first) != set(other)

    def test_ties_land_uniformly(self):
        # Each node should win a seat in roughly k/n of the draws.
        scores = np.full(20, 0.5)
        counts = np.zeros(20)
        for seed in range(300):
            for node in top_k_by_score(scores, 5, rng=seed):
                counts[node] += 1
        expected = 300 * 5 / 20
        assert counts.min() > 0.5 * expected
        assert counts.max() < 1.5 * expected

    def test_tie_break_never_beats_a_higher_score(self):
        rng = np.random.default_rng(0)
        scores = np.repeat([0.9, 0.5, 0.1], 10)
        rng.shuffle(scores)
        for seed in range(10):
            seeds = top_k_by_score(scores, 10, rng=seed)
            # k equals the count of 0.9-scored nodes: they must all win.
            assert sorted(scores[seeds]) == [0.9] * 10

    def test_model_selection_respects_rng_only_on_ties(self, graph):
        model = build_gnn("gcn", hidden_features=8, num_layers=2, rng=0)
        scores = score_nodes(model, graph)
        seeds = select_top_k_seeds(model, graph, 5, rng=3)
        # Continuous scores: no ties, so any rng gives the true top-5.
        assert sorted(scores[seeds], reverse=True) == sorted(
            np.sort(scores)[::-1][:5], reverse=True
        )
