"""Tests for learning-rate schedulers."""

import numpy as np
import pytest

from repro.errors import TrainingError
from repro.nn.module import Parameter
from repro.nn.optim import SGD
from repro.nn.schedulers import ConstantLR, CosineLR, StepDecayLR, build_scheduler


def make_optimizer(rate: float = 0.1) -> SGD:
    return SGD([Parameter(np.ones(1))], learning_rate=rate)


class TestSchedulers:
    def test_constant_never_changes(self):
        optimizer = make_optimizer()
        scheduler = ConstantLR(optimizer)
        for _ in range(10):
            scheduler.step()
        assert optimizer.learning_rate == pytest.approx(0.1)

    def test_step_decay_halves_each_period(self):
        optimizer = make_optimizer(0.1)
        scheduler = StepDecayLR(optimizer, period=5, gamma=0.5)
        rates = [scheduler.step() for _ in range(10)]
        assert rates[3] == pytest.approx(0.1)    # iteration 4 < 5
        assert rates[5] == pytest.approx(0.05)   # iteration 6 in [5, 10)
        assert rates[9] == pytest.approx(0.025)  # iteration 10

    def test_cosine_anneals_to_floor(self):
        optimizer = make_optimizer(0.1)
        scheduler = CosineLR(optimizer, total=20, floor=0.01)
        rates = [scheduler.step() for _ in range(20)]
        assert rates[0] < 0.1  # already decaying
        assert rates[-1] == pytest.approx(0.01, rel=1e-6)
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_cosine_without_floor_approaches_zero(self):
        optimizer = make_optimizer(0.1)
        scheduler = CosineLR(optimizer, total=10)
        for _ in range(10):
            last = scheduler.step()
        assert last < 1e-6

    def test_factory(self):
        optimizer = make_optimizer()
        assert isinstance(build_scheduler(optimizer, "constant"), ConstantLR)
        assert isinstance(build_scheduler(optimizer, "step", period=3), StepDecayLR)
        assert isinstance(build_scheduler(optimizer, "cosine", total=5), CosineLR)
        with pytest.raises(TrainingError):
            build_scheduler(optimizer, "exponential")

    def test_validation(self):
        optimizer = make_optimizer()
        with pytest.raises(TrainingError):
            StepDecayLR(optimizer, period=0)
        with pytest.raises(TrainingError):
            StepDecayLR(optimizer, period=2, gamma=0.0)
        with pytest.raises(TrainingError):
            CosineLR(optimizer, total=0)

    def test_zero_rate_optimizer_rejected_cleanly(self):
        """Regression: a duck-typed optimizer with ``learning_rate == 0``
        used to surface as ZeroDivisionError in CosineLR's floor factor."""

        class FrozenOptimizer:
            learning_rate = 0.0

        for build in (
            lambda: ConstantLR(FrozenOptimizer()),
            lambda: CosineLR(FrozenOptimizer(), total=10, floor=0.01),
            lambda: StepDecayLR(FrozenOptimizer(), period=2),
        ):
            with pytest.raises(TrainingError, match="positive"):
                build()

    def test_cosine_floor_above_base_rejected(self):
        with pytest.raises(TrainingError, match="floor"):
            CosineLR(make_optimizer(0.01), total=10, floor=0.1)

    def test_load_state_dict_rejects_non_positive_base_rate(self):
        scheduler = ConstantLR(make_optimizer())
        with pytest.raises(TrainingError, match="positive"):
            scheduler.load_state_dict({"iteration": 1, "base_learning_rate": 0.0})

    def test_state_dict_round_trip_resumes_schedule(self):
        optimizer = make_optimizer(0.1)
        scheduler = StepDecayLR(optimizer, period=2, gamma=0.5)
        for _ in range(3):
            scheduler.step()
        snapshot = scheduler.state_dict()

        resumed_optimizer = make_optimizer(0.1)
        resumed_optimizer.learning_rate = optimizer.learning_rate
        resumed = StepDecayLR(resumed_optimizer, period=2, gamma=0.5)
        resumed.load_state_dict(snapshot)
        assert resumed.iteration == 3
        # The next step must agree exactly with the uninterrupted schedule.
        assert resumed.step() == scheduler.step()
        assert resumed_optimizer.learning_rate == optimizer.learning_rate

    def test_load_state_dict_validation(self):
        scheduler = ConstantLR(make_optimizer())
        with pytest.raises(TrainingError):
            scheduler.load_state_dict({})
        with pytest.raises(TrainingError):
            scheduler.load_state_dict({"iteration": -1})

    def test_trainer_accepts_scheduler(self):
        from repro.core.trainer import DPGNNTrainer, DPTrainingConfig
        from repro.gnn.models import build_gnn
        from repro.graphs.generators import powerlaw_cluster_graph
        from repro.sampling import DualStageSamplingConfig, sample_dual_stage

        graph = powerlaw_cluster_graph(100, 3, 0.3, rng=0)
        container = sample_dual_stage(
            graph,
            DualStageSamplingConfig(subgraph_size=8, threshold=4, sampling_rate=0.8),
            rng=0,
        ).container
        model = build_gnn("gcn", hidden_features=8, num_layers=2, rng=0)
        config = DPTrainingConfig(iterations=6, batch_size=4, sigma=0.0, clip_bound=None)
        trainer = DPGNNTrainer(model, container, config, rng=0)
        scheduler = StepDecayLR(trainer.optimizer, period=2, gamma=0.5)
        trainer.train(scheduler)
        assert trainer.optimizer.learning_rate == pytest.approx(
            config.learning_rate * 0.5**3
        )
