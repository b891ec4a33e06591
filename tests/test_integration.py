"""End-to-end integration tests across the whole stack."""

import numpy as np
import pytest

from repro import (
    EGNPipeline,
    HPPipeline,
    NonPrivatePipeline,
    PrivIM,
    PrivIMConfig,
    PrivIMStar,
    load_dataset,
)
from repro.baselines.egn import EGNConfig
from repro.baselines.hp import HPConfig
from repro.experiments.harness import split_graph
from repro.im import celf_coverage, coverage_ratio, coverage_spread, random_seeds


@pytest.fixture(scope="module")
def setting():
    graph = load_dataset("lastfm", scale=0.04)  # ~300 nodes
    train, test = split_graph(graph, 0.5, rng=0)
    seeds, celf_spread = celf_coverage(test, 10)
    return train, test, celf_spread


def pipeline_config(**overrides):
    defaults = dict(
        epsilon=4.0,
        subgraph_size=15,
        threshold=4,
        iterations=20,
        batch_size=6,
        sampling_rate=0.8,
        learning_rate=0.05,
        hidden_features=16,
        rng=2024,
    )
    defaults.update(overrides)
    return PrivIMConfig(**defaults)


class TestEndToEnd:
    def test_nonprivate_beats_random(self, setting):
        train, test, celf_spread = setting
        pipeline = NonPrivatePipeline(pipeline_config())
        pipeline.fit(train)
        spread = coverage_spread(test, pipeline.select_seeds(test, 10))
        random_spread = np.mean(
            [coverage_spread(test, random_seeds(test, 10, seed)) for seed in range(10)]
        )
        assert spread > random_spread

    def test_nonprivate_near_celf(self, setting):
        train, test, celf_spread = setting
        pipeline = NonPrivatePipeline(pipeline_config())
        pipeline.fit(train)
        spread = coverage_spread(test, pipeline.select_seeds(test, 10))
        assert coverage_ratio(spread, celf_spread) > 70.0

    def test_privim_star_fits_within_budget(self, setting):
        train, test, _ = setting
        pipeline = PrivIMStar(pipeline_config(epsilon=3.0))
        result = pipeline.fit(train)
        assert result.epsilon <= 3.0 + 1e-6
        assert result.empirical_max_occurrence <= pipeline.config.threshold

    def test_privim_star_under_dp_still_useful(self, setting):
        """At a moderate budget PrivIM* should stay well above random."""
        train, test, celf_spread = setting
        ratios = []
        for seed in range(3):
            pipeline = PrivIMStar(pipeline_config(epsilon=6.0, rng=seed))
            pipeline.fit(train)
            spread = coverage_spread(test, pipeline.select_seeds(test, 10))
            ratios.append(coverage_ratio(spread, celf_spread))
        random_ratio = coverage_ratio(
            np.mean(
                [coverage_spread(test, random_seeds(test, 10, s)) for s in range(10)]
            ),
            celf_spread,
        )
        assert np.mean(ratios) > random_ratio

    def test_all_methods_run_end_to_end(self, setting):
        train, test, _ = setting
        pipelines = [
            PrivIM(pipeline_config(iterations=5)),
            PrivIMStar(pipeline_config(iterations=5)),
            PrivIMStar(pipeline_config(iterations=5), include_boundary=False),
            EGNPipeline(
                EGNConfig(epsilon=4.0, num_subgraphs=15, subgraph_size=12,
                          iterations=5, rng=0)
            ),
            HPPipeline(HPConfig(epsilon=4.0, iterations=5, ego_sample_rate=0.3, rng=0)),
        ]
        for pipeline in pipelines:
            pipeline.fit(train)
            seeds = pipeline.select_seeds(test, 5)
            assert len(set(seeds)) == 5

    def test_reported_epsilon_matches_accounting(self, setting):
        """The accountant's final epsilon never exceeds the target."""
        train, _, _ = setting
        for target in (1.0, 2.0, 5.0):
            pipeline = PrivIMStar(pipeline_config(epsilon=target, iterations=10))
            result = pipeline.fit(train)
            assert result.epsilon <= target + 1e-6
            assert result.epsilon > 0.5 * target  # calibration is tight

    def test_checkpoint_roundtrip_preserves_seeds(self, setting):
        train, test, _ = setting
        pipeline = PrivIMStar(pipeline_config(iterations=5))
        pipeline.fit(train)
        state = pipeline.model.state_dict()
        seeds_before = pipeline.select_seeds(test, 8)

        from repro.gnn.models import build_gnn

        clone = build_gnn("grat", hidden_features=16, num_layers=3, rng=99)
        clone.load_state_dict(state)
        from repro.core.seed_selection import select_top_k_seeds

        assert select_top_k_seeds(clone, test, 8) == seeds_before


class TestFailureInjection:
    def test_training_survives_extreme_noise(self, setting):
        """Huge sigma must degrade utility, not crash or NaN."""
        train, test, _ = setting
        from repro.core.trainer import DPGNNTrainer, DPTrainingConfig
        from repro.gnn.models import build_gnn
        from repro.sampling import DualStageSamplingConfig, sample_dual_stage

        container = sample_dual_stage(
            train,
            DualStageSamplingConfig(subgraph_size=10, threshold=4, sampling_rate=0.8),
            rng=0,
        ).container
        model = build_gnn("gcn", hidden_features=8, num_layers=2, rng=0)
        config = DPTrainingConfig(iterations=5, batch_size=4, sigma=100.0)
        DPGNNTrainer(model, container, config, rng=0).train()
        for parameter in model.parameters():
            assert np.all(np.isfinite(parameter.data))

    def test_disconnected_graph_handled(self):
        """Graphs with isolated components still produce subgraphs."""
        from repro.graphs.graph import Graph
        from repro.sampling import DualStageSamplingConfig, sample_dual_stage

        # Two disjoint cliques of 20 nodes.
        edges = [(u, v) for u in range(20) for v in range(u + 1, 20)]
        edges += [(u + 20, v + 20) for u, v in edges]
        graph = Graph(40, edges, directed=False)
        result = sample_dual_stage(
            graph,
            DualStageSamplingConfig(subgraph_size=5, threshold=3, sampling_rate=1.0),
            rng=0,
        )
        assert len(result.container) > 0

    def test_single_node_components_do_not_crash(self):
        from repro.graphs.graph import Graph
        from repro.sampling import NaiveSamplingConfig, sample_naive

        graph = Graph(30, [(0, 1), (1, 2)])
        container = sample_naive(
            graph,
            NaiveSamplingConfig(subgraph_size=3, sampling_rate=1.0, walk_length=50),
            rng=0,
        ).container
        # Only the chain can yield 3-node subgraphs; isolated nodes cannot.
        assert all(sub.num_nodes == 3 for sub in container)
