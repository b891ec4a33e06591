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


class TestRunTimePrivacyCheck:
    """train() ends by checking the invariants the accounted ε rests on;
    each tamper below breaks one and must raise PrivacyError with exactly
    one ``privacy_error`` event."""

    @staticmethod
    def observed_trainer(container, **overrides):
        from repro.obs import Observability, PrivacyLedger, RunRecorder

        recorder = RunRecorder()
        settings = dict(iterations=4, batch_size=4, sigma=0.8, max_occurrences=4)
        settings.update(overrides)
        trainer = DPGNNTrainer(
            make_model(), container, DPTrainingConfig(**settings), rng=0,
            obs=Observability(recorder=recorder),
        )
        trainer.accountant.attach_ledger(PrivacyLedger(1e-5))
        return trainer, recorder

    @staticmethod
    def privacy_errors(recorder):
        return [event for event in recorder.events if event["type"] == "privacy_error"]

    def assert_refused(self, trainer, recorder, match):
        from repro.errors import PrivacyError

        with pytest.raises(PrivacyError, match=match):
            trainer.train()
        [event] = self.privacy_errors(recorder)
        assert event["iteration"] == trainer.config.iterations
        assert len(event["problems"]) == 1

    def test_untampered_run_passes(self, container):
        trainer, recorder = self.observed_trainer(container)
        trainer.train()
        assert not self.privacy_errors(recorder)
        ledger = trainer.accountant.ledger
        assert ledger.final_epsilon == trainer.accountant.epsilon(ledger.delta)

    def test_step_count_mismatch_refused(self, container):
        trainer, recorder = self.observed_trainer(container)
        trainer.accountant.steps = 1  # a step no iteration accounts for
        self.assert_refused(trainer, recorder, "5 steps for 4 completed iterations")

    @pytest.mark.parametrize(
        "field, value",
        [("sigma", 0.9), ("batch_size", 5), ("num_subgraphs", 7), ("max_occurrences", 3)],
    )
    def test_accountant_parameter_mismatch_refused(self, container, field, value):
        trainer, recorder = self.observed_trainer(container)
        setattr(trainer.accountant, field, value)
        self.assert_refused(trainer, recorder, "sigma, B, m, N_g")

    def test_noise_scale_mismatch_refused(self, container, monkeypatch):
        import repro.core.trainer as trainer_module

        trainer, recorder = self.observed_trainer(container)
        monkeypatch.setattr(
            trainer_module, "node_level_sensitivity",
            lambda clip_bound, occurrences: clip_bound * (occurrences - 1),
        )
        self.assert_refused(trainer, recorder, "noise scales")

    def test_ledger_epsilon_off_by_one_ulp_refused(self, container, monkeypatch):
        from repro.obs import PrivacyLedger

        original = PrivacyLedger.record_step

        def nudged(self, accountant):
            event = original(self, accountant)
            event["epsilon"] = float(np.nextafter(event["epsilon"], np.inf))
            return event

        monkeypatch.setattr(PrivacyLedger, "record_step", nudged)
        trainer, recorder = self.observed_trainer(container)
        self.assert_refused(trainer, recorder, "ledger epsilon")

    def test_check_is_skipped_for_non_private_training(self, container):
        config = DPTrainingConfig(iterations=2, batch_size=4, sigma=0.0, clip_bound=None)
        trainer = DPGNNTrainer(make_model(), container, config, rng=0)
        trainer.train()
        trainer.check_privacy()  # no accountant: nothing to check
