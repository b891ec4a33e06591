"""Tests for the EGN, HP and Non-Private baselines."""

import numpy as np
import pytest

from repro.baselines.egn import EGNConfig, EGNPipeline
from repro.baselines.hp import HPConfig, HPPipeline, _sml_noise_fn
from repro.baselines.nonprivate import NonPrivatePipeline
from repro.core.pipeline import PrivIMConfig
from repro.errors import TrainingError
from repro.graphs.generators import powerlaw_cluster_graph


@pytest.fixture(scope="module")
def graph():
    return powerlaw_cluster_graph(180, 3, 0.3, rng=33)


class TestEGN:
    def fast_config(self, **overrides):
        defaults = dict(
            epsilon=4.0,
            num_subgraphs=20,
            subgraph_size=12,
            iterations=4,
            batch_size=4,
            hidden_features=8,
            num_layers=2,
            rng=3,
        )
        defaults.update(overrides)
        return EGNConfig(**defaults)

    def test_fit_and_select(self, graph):
        pipeline = EGNPipeline(self.fast_config())
        result = pipeline.fit(graph)
        assert result.num_subgraphs == 20
        # EGN assumes worst-case occurrences: every subgraph.
        assert result.max_occurrences == 20
        seeds = pipeline.select_seeds(graph, 8)
        assert len(set(seeds)) == 8

    def test_uses_gcn_by_default(self, graph):
        pipeline = EGNPipeline(self.fast_config())
        pipeline.fit(graph)
        assert pipeline.model.config.model == "gcn"

    def test_nonprivate_mode(self, graph):
        pipeline = EGNPipeline(self.fast_config(epsilon=None))
        result = pipeline.fit(graph)
        assert result.sigma == 0.0
        assert result.epsilon == float("inf")

    def test_artifact_publishes_clip_bound(self, graph):
        """The trainer clips at C with σ > 0, so the provenance must say
        so; ``None`` would read as non-private."""
        result = EGNPipeline(self.fast_config(clip_bound=0.7)).fit(graph)
        privacy = result.build_artifact().privacy
        assert privacy.sigma > 0
        assert privacy.clip_bound == 0.7
        nonprivate = EGNPipeline(self.fast_config(epsilon=None)).fit(graph)
        assert nonprivate.build_artifact().privacy.clip_bound is None

    def test_select_before_fit(self, graph):
        with pytest.raises(TrainingError):
            EGNPipeline(self.fast_config()).select_seeds(graph, 3)

    def test_method_name(self):
        assert EGNPipeline().method_name == "EGN"


class TestHP:
    def fast_config(self, **overrides):
        defaults = dict(
            epsilon=4.0,
            iterations=4,
            batch_size=4,
            ego_sample_rate=0.3,
            hidden_features=8,
            num_layers=2,
            rng=3,
        )
        defaults.update(overrides)
        return HPConfig(**defaults)

    def test_fit_and_select(self, graph):
        pipeline = HPPipeline(self.fast_config())
        result = pipeline.fit(graph)
        assert result.num_subgraphs > 0
        assert result.sigma > 0
        seeds = pipeline.select_seeds(graph, 8)
        assert len(set(seeds)) == 8

    def test_ego_subgraphs_are_bounded(self, graph):
        pipeline = HPPipeline(self.fast_config(max_ego_size=12))
        container = pipeline._ego_container(graph)
        assert all(sub.num_nodes <= 12 for sub in container)
        assert all(sub.num_nodes >= 2 for sub in container)

    def test_accounting_bound_follows_hops(self, graph):
        pipeline = HPPipeline(self.fast_config(theta=5, accounting_hops=2))
        result = pipeline.fit(graph)
        assert result.max_occurrences == 1 + 5 + 25

    def test_artifact_publishes_clip_bound(self, graph):
        result = HPPipeline(self.fast_config(clip_bound=0.7)).fit(graph)
        privacy = result.build_artifact().privacy
        assert privacy.sigma > 0
        assert privacy.clip_bound == 0.7
        nonprivate = HPPipeline(self.fast_config(epsilon=None)).fit(graph)
        assert nonprivate.build_artifact().privacy.clip_bound is None

    def test_method_names(self):
        assert HPPipeline(HPConfig(model="gcn")).method_name == "HP"
        assert HPPipeline(HPConfig(model="grat")).method_name == "HP-GRAT"

    def test_hp_grat_uses_grat(self, graph):
        pipeline = HPPipeline(self.fast_config(model="grat"))
        pipeline.fit(graph)
        assert pipeline.model.config.model == "grat"

    def test_no_ego_nets_raises(self, graph):
        pipeline = HPPipeline(self.fast_config(ego_sample_rate=1e-9))
        with pytest.raises(TrainingError, match="ego"):
            pipeline.fit(graph)

    def test_sml_noise_shape_and_scale(self):
        rng = np.random.default_rng(0)
        samples = np.concatenate(
            [_sml_noise_fn(2.0, 1.5, (50,), rng) for _ in range(2000)]
        )
        assert samples.std() == pytest.approx(3.0, rel=0.1)
        shaped = _sml_noise_fn(1.0, 1.0, (3, 4), rng)
        assert shaped.shape == (3, 4)


class TestNonPrivate:
    def test_is_privim_star_without_budget(self, graph):
        pipeline = NonPrivatePipeline(
            PrivIMConfig(
                epsilon=3.0,  # deliberately set; must be ignored
                subgraph_size=10,
                iterations=3,
                batch_size=4,
                sampling_rate=0.5,
                hidden_features=8,
                num_layers=2,
                rng=1,
            )
        )
        result = pipeline.fit(graph)
        assert result.sigma == 0.0
        assert result.epsilon == float("inf")
        assert pipeline.method_name == "Non-Private"


class TestDPGreedy:
    def test_huge_epsilon_matches_greedy_quality(self, graph):
        from repro.baselines.dp_greedy import dp_greedy_im
        from repro.im.celf import celf_coverage

        _, celf_spread = celf_coverage(graph, 5)
        _, spread = dp_greedy_im(graph, 5, epsilon=1e9, rng=0)
        assert spread >= 0.95 * celf_spread

    def test_small_epsilon_near_random(self, graph):
        from repro.baselines.dp_greedy import dp_greedy_im
        from repro.im.celf import celf_coverage
        from repro.im.heuristics import random_seeds
        from repro.im.spread import coverage_spread
        import numpy as np

        _, celf_spread = celf_coverage(graph, 5)
        random_spread = np.mean(
            [coverage_spread(graph, random_seeds(graph, 5, s)) for s in range(10)]
        )
        spreads = [dp_greedy_im(graph, 5, epsilon=1.0, rng=s)[1] for s in range(3)]
        # Noise scale = |V| / (eps/k) >> gains: selection is near-uniform,
        # far below CELF and near the random baseline.
        assert np.mean(spreads) < 0.75 * celf_spread
        assert np.mean(spreads) < 2.2 * random_spread

    def test_exponential_mechanism_variant(self, graph):
        from repro.baselines.dp_greedy import dp_greedy_im

        seeds, spread = dp_greedy_im(graph, 4, epsilon=2.0, mechanism="exponential", rng=0)
        assert len(set(seeds)) == 4
        assert spread >= 4

    def test_validation(self, graph):
        from repro.baselines.dp_greedy import dp_greedy_im
        from repro.errors import GraphError, PrivacyError

        with pytest.raises(GraphError):
            dp_greedy_im(graph, 0, 1.0)
        with pytest.raises(PrivacyError):
            dp_greedy_im(graph, 2, 0.0)
        with pytest.raises(PrivacyError):
            dp_greedy_im(graph, 2, 1.0, mechanism="gauss")
