"""Tests for the Algorithm 2 trainer."""

import numpy as np
import pytest

from repro.core.loss import PenaltyLossConfig
from repro.core.trainer import DPGNNTrainer, DPTrainingConfig
from repro.errors import TrainingError
from repro.gnn.models import build_gnn
from repro.graphs.generators import powerlaw_cluster_graph
from repro.sampling import DualStageSamplingConfig, sample_dual_stage


@pytest.fixture
def container():
    graph = powerlaw_cluster_graph(150, 3, 0.3, rng=4)
    config = DualStageSamplingConfig(
        subgraph_size=10, threshold=4, sampling_rate=0.8, walk_length=300
    )
    return sample_dual_stage(graph, config, rng=4).container


def make_model():
    return build_gnn("gcn", hidden_features=8, num_layers=2, rng=0)


class TestTraining:
    def test_history_lengths(self, container):
        config = DPTrainingConfig(iterations=5, batch_size=4, sigma=0.5)
        trainer = DPGNNTrainer(make_model(), container, config, rng=0)
        history = trainer.train()
        assert history.iterations == 5
        assert len(history.gradient_norms) == 5
        assert len(history.seconds) == 5
        assert history.total_seconds > 0

    def test_nonprivate_loss_decreases(self, container):
        config = DPTrainingConfig(
            iterations=30,
            batch_size=8,
            learning_rate=0.1,
            clip_bound=None,
            sigma=0.0,
        )
        trainer = DPGNNTrainer(make_model(), container, config, rng=0)
        history = trainer.train()
        assert np.mean(history.losses[-5:]) < np.mean(history.losses[:5])

    def test_private_weights_move_more_with_more_noise(self, container):
        def final_weights(sigma):
            model = make_model()
            config = DPTrainingConfig(iterations=10, batch_size=4, sigma=sigma,
                                      max_occurrences=4)
            DPGNNTrainer(model, container, config, rng=1).train()
            return np.concatenate([p.data.reshape(-1) for p in model.parameters()])

        base = final_weights(1e-6)
        noisy = final_weights(5.0)
        assert np.linalg.norm(noisy) > np.linalg.norm(base)

    def test_accountant_tracks_iterations(self, container):
        config = DPTrainingConfig(iterations=7, batch_size=4, sigma=1.0)
        trainer = DPGNNTrainer(make_model(), container, config, rng=0)
        trainer.train()
        assert trainer.accountant.steps == 7
        assert trainer.spent_epsilon(1e-4) > 0

    def test_nonprivate_has_no_accountant(self, container):
        config = DPTrainingConfig(iterations=2, batch_size=4, sigma=0.0, clip_bound=None)
        trainer = DPGNNTrainer(make_model(), container, config, rng=0)
        assert trainer.accountant is None
        assert trainer.spent_epsilon(1e-4) == float("inf")

    def test_deterministic_given_seed(self, container):
        def run():
            model = make_model()
            config = DPTrainingConfig(iterations=3, batch_size=4, sigma=1.0)
            DPGNNTrainer(model, container, config, rng=99).train()
            return model.gradient_vector(), model.state_dict()

        _, first = run()
        _, second = run()
        for key in first:
            np.testing.assert_allclose(first[key], second[key])

    def test_per_subgraph_gradient_clipped(self, container):
        config = DPTrainingConfig(iterations=1, batch_size=2, sigma=0.0,
                                  clip_bound=0.05)
        config.validate()
        trainer = DPGNNTrainer(make_model(), container, config, rng=0)
        gradient, _, raw = trainer._subgraph_gradient(0, container[0])
        assert np.linalg.norm(gradient) <= 0.05 + 1e-12
        assert raw >= np.linalg.norm(gradient) - 1e-12


class TestValidation:
    def test_empty_container_rejected(self):
        from repro.sampling.container import SubgraphContainer

        config = DPTrainingConfig()
        with pytest.raises(TrainingError):
            DPGNNTrainer(make_model(), SubgraphContainer(), config)

    def test_pool_mutated_mid_training_rejected(self, container):
        # extend() between steps changes len(pool): the accountant's
        # subsampling ratio and the batch picks both depend on it, so the
        # trainer must refuse rather than silently mis-account epsilon.
        from repro.sampling.container import SubgraphContainer

        pool = SubgraphContainer()
        pool.extend(container)
        config = DPTrainingConfig(iterations=3, batch_size=4, sigma=0.5)
        trainer = DPGNNTrainer(make_model(), pool, config, rng=0)
        trainer.train_step()
        extra = SubgraphContainer([container[0]])
        pool.extend(extra)
        with pytest.raises(TrainingError, match="pool size changed"):
            trainer.train_step()
        trainer.close()

    def test_batch_larger_than_container_rejected(self, container):
        config = DPTrainingConfig(batch_size=10_000)
        with pytest.raises(TrainingError):
            DPGNNTrainer(make_model(), container, config)

    def test_config_validation(self):
        with pytest.raises(TrainingError):
            DPTrainingConfig(iterations=0).validate()
        with pytest.raises(TrainingError):
            DPTrainingConfig(learning_rate=0.0).validate()
        with pytest.raises(TrainingError):
            DPTrainingConfig(sigma=-1.0).validate()
        with pytest.raises(TrainingError):
            DPTrainingConfig(sigma=1.0, clip_bound=None).validate()
        with pytest.raises(TrainingError):
            DPTrainingConfig(clip_bound=0.0).validate()

    def test_is_private_flag(self):
        assert DPTrainingConfig(sigma=1.0, clip_bound=1.0).is_private
        assert not DPTrainingConfig(sigma=0.0, clip_bound=1.0).is_private


class TestSuggestClipBound:
    def test_returns_quantile_of_norms(self, container):
        from repro.core.trainer import suggest_clip_bound

        model = make_model()
        bound = suggest_clip_bound(model, container, quantile=1.0, rng=0)
        assert bound > 0
        median = suggest_clip_bound(model, container, quantile=0.5, rng=0)
        assert median <= bound

    def test_model_weights_restored(self, container):
        from repro.core.trainer import suggest_clip_bound

        model = make_model()
        before = model.state_dict()
        suggest_clip_bound(model, container, rng=0)
        after = model.state_dict()
        for key in before:
            np.testing.assert_allclose(before[key], after[key])
        assert all(p.grad is None for p in model.parameters())

    def test_validation(self, container):
        from repro.core.trainer import suggest_clip_bound
        from repro.sampling.container import SubgraphContainer

        model = make_model()
        with pytest.raises(TrainingError):
            suggest_clip_bound(model, container, quantile=0.0)
        with pytest.raises(TrainingError):
            suggest_clip_bound(model, SubgraphContainer())
