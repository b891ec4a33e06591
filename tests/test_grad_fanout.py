"""Bit-identity tests for the parallel clipped-gradient fan-out.

The engine's contract: ``grad_workers`` is purely an execution detail.
For any worker count (on the fused kernels or on the ``np.add.at``
scatter oracle) the summed clipped gradient, the noise draw, the
accountant state, and the final weights are *byte-equal* to the serial
run — so privacy accounting and checkpoint guarantees are untouched by
parallelism.
"""

import numpy as np
import pytest

import os
import signal
from multiprocessing import shared_memory

from repro.core.compute_plan import ComputePlan, ComputePlanCache
from repro.core.grad_fanout import (
    GRAD_MODES,
    GradientFanout,
    resolve_workers,
    subgraph_gradient,
)
from tests.oracles import assert_outcomes_identical, resumed_outcome
from tests.oracles import train_outcome as oracle_train_outcome
from repro.core.loss import PenaltyLossConfig
from repro.core.trainer import DPGNNTrainer, DPTrainingConfig
from repro.errors import TrainingError
from repro.gnn.models import build_gnn
from repro.graphs.generators import powerlaw_cluster_graph
from repro.sampling.dual_stage import DualStageSamplingConfig, extract_subgraphs_dual_stage


@pytest.fixture(scope="module")
def container():
    graph = powerlaw_cluster_graph(150, 3, 0.3, rng=4)
    config = DualStageSamplingConfig(
        subgraph_size=10, threshold=4, sampling_rate=0.8, walk_length=300
    )
    return extract_subgraphs_dual_stage(graph, config, rng=4).container


def make_model(kind="gcn"):
    return build_gnn(kind, hidden_features=8, num_layers=2, rng=0)


def train_outcome(container, *, grad_workers, sigma=1.0, clip_bound=1.0,
                  iterations=4, model="gcn", rng=7):
    gnn = make_model(model)
    config = DPTrainingConfig(
        iterations=iterations, batch_size=4, sigma=sigma,
        clip_bound=clip_bound, max_occurrences=4, grad_workers=grad_workers,
    )
    trainer = DPGNNTrainer(gnn, container, config, rng=rng)
    history = trainer.train()
    weights = np.concatenate([p.data.reshape(-1) for p in gnn.parameters()])
    epsilon = trainer.spent_epsilon(1e-4) if trainer.accountant else None
    return weights.tobytes(), tuple(history.losses), epsilon


class TestWorkerBitIdentity:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_private_run_matches_serial(self, container, workers):
        serial = train_outcome(container, grad_workers=1)
        fanned = train_outcome(container, grad_workers=workers)
        assert fanned == serial

    @pytest.mark.parametrize("workers", [2, 4])
    def test_nonprivate_run_matches_serial(self, container, workers):
        serial = train_outcome(
            container, grad_workers=1, sigma=0.0, clip_bound=None
        )
        fanned = train_outcome(
            container, grad_workers=workers, sigma=0.0, clip_bound=None
        )
        assert fanned == serial

    def test_attention_model_matches_serial(self, container):
        serial = train_outcome(container, grad_workers=1, model="grat")
        fanned = train_outcome(container, grad_workers=2, model="grat")
        assert fanned == serial

    def test_kernels_off_matches_kernels_on(self, container, add_at_kernels):
        fast = train_outcome(container, grad_workers=1)
        with add_at_kernels():
            reference = train_outcome(container, grad_workers=1)
        assert fast == reference

    def test_workers_zero_resolves_to_cpu_count(self, container):
        serial = train_outcome(container, grad_workers=1, iterations=2)
        auto = train_outcome(container, grad_workers=0, iterations=2)
        assert auto == serial

    def test_negative_workers_rejected(self):
        with pytest.raises(TrainingError, match="grad_workers"):
            DPTrainingConfig(grad_workers=-1).validate()

    def test_workers_zero_means_auto(self):
        assert resolve_workers(0) >= 1
        with pytest.raises(TrainingError):
            resolve_workers(-1)


class TestCheckpointAcrossWorkerCounts:
    def test_fingerprint_excludes_grad_workers(self, container):
        config = DPTrainingConfig(
            iterations=4, batch_size=4, sigma=1.0, grad_workers=2
        )
        trainer = DPGNNTrainer(make_model(), container, config, rng=7)
        fingerprint = trainer._fingerprint()
        assert "grad_workers" not in fingerprint
        trainer.close()

    def test_resume_two_worker_checkpoint_under_one_worker(
        self, container, tmp_path
    ):
        def outcome(trainer):
            history = trainer.train()
            weights = np.concatenate(
                [p.data.reshape(-1) for p in trainer.model.parameters()]
            )
            return (
                weights.tobytes(),
                tuple(history.losses),
                trainer.spent_epsilon(1e-4),
            )

        def config(workers, **overrides):
            settings = dict(
                iterations=6, batch_size=4, sigma=1.0, max_occurrences=4,
                grad_workers=workers,
            )
            settings.update(overrides)
            return DPTrainingConfig(**settings)

        reference = DPGNNTrainer(make_model(), container, config(1), rng=7)
        uninterrupted = outcome(reference)

        # Run the first 3 iterations with 2 workers, checkpointing.
        path = str(tmp_path / "xworkers")
        partial = DPGNNTrainer(
            make_model(),
            container,
            config(2, iterations=3, checkpoint_every=3, checkpoint_path=path),
            rng=7,
        )
        partial.train()

        # Resume to completion with 1 worker: byte-equal to uninterrupted.
        resumed = DPGNNTrainer(
            make_model(),
            container,
            config(1, checkpoint_every=3, checkpoint_path=path),
            rng=991,  # proves restored RNG streams drive the run
        )
        resumed.load_checkpoint(path)
        assert outcome(resumed) == uninterrupted


class TestGradientFanoutEngine:
    def test_pool_matches_serial_computation(self, container):
        model = make_model()
        plans = ComputePlanCache(container)
        loss = PenaltyLossConfig()
        indices = np.array([0, 3, 1, 1, 2], dtype=np.int64)

        serial = GradientFanout(model, plans, loss, 1.0, workers=1)
        results_a, _ = serial.compute(indices)
        serial.close()

        pooled = GradientFanout(model, plans, loss, 1.0, workers=2)
        try:
            results_b, stats = pooled.compute(indices)
        finally:
            pooled.close()

        assert len(results_a) == len(results_b) == len(indices)
        for (ga, la, na), (gb, lb, nb) in zip(results_a, results_b):
            assert ga.tobytes() == gb.tobytes()
            assert la == lb and na == nb
        assert sum(stats.values()) > 0

    def test_subgraph_gradient_clips(self, container):
        model = make_model()
        plan = ComputePlan(container[0].graph)
        gradient, loss_value, raw = subgraph_gradient(
            model, plan, PenaltyLossConfig(), 0.05
        )
        assert np.linalg.norm(gradient) <= 0.05 + 1e-12
        assert raw >= np.linalg.norm(gradient) - 1e-12
        assert np.isfinite(loss_value)

    def test_trainer_legacy_gradient_helper_delegates(self, container):
        config = DPTrainingConfig(
            iterations=1, batch_size=2, sigma=0.0, clip_bound=0.05
        )
        trainer = DPGNNTrainer(make_model(), container, config, rng=0)
        via_trainer, _, _ = trainer._subgraph_gradient(0, container[0])
        direct, _, _ = subgraph_gradient(
            trainer.model, trainer._plans.plan(0), config.loss, 0.05
        )
        assert via_trainer.tobytes() == direct.tobytes()


class TestComputePlanCache:
    def test_plan_memoizes_and_is_stable(self, container):
        cache = ComputePlanCache(container)
        plan = cache.plan(0)
        assert cache.plan(0) is plan
        assert plan.edge_index is plan.edge_index
        features = plan.features(8)
        assert plan.features(8) is features
        sort = plan.segment_sort("target")
        assert plan.segment_sort("target") is sort

    def test_matches_by_container_identity(self, container):
        cache = ComputePlanCache(container)
        assert cache.matches(container)
        graph = powerlaw_cluster_graph(60, 2, 0.2, rng=9)
        other = extract_subgraphs_dual_stage(
            graph,
            DualStageSamplingConfig(
                subgraph_size=8, threshold=3, sampling_rate=0.8, walk_length=100
            ),
            rng=9,
        ).container
        assert not cache.matches(other)

    def test_out_of_range_plan_rejected(self, container):
        cache = ComputePlanCache(container)
        with pytest.raises(TrainingError):
            cache.plan(len(container))

    def test_prebuild_covers_all_plans(self, container):
        cache = ComputePlanCache(container)
        cache.prebuild(feature_dim=8)
        assert len(cache) == len(container)


class _PoisonedPlans(ComputePlanCache):
    """Plan cache that fails for one slot — drives worker-error reporting."""

    def plan(self, index):
        if int(index) == 2:
            raise RuntimeError("poisoned plan")
        return super().plan(index)


class TestGradModeBitIdentity:
    """grad_mode x grad_workers x privacy: all byte-equal to the oracle.

    The oracle is the serial per-subgraph loop (grad_mode="loop",
    grad_workers=1).  Every other execution configuration must reproduce
    its weights, losses, and accounted epsilon byte for byte.
    """

    @pytest.mark.parametrize("private", [True, False], ids=["private", "nonprivate"])
    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("grad_mode", GRAD_MODES)
    def test_matches_loop_serial_oracle(self, container, grad_mode, workers, private):
        knobs = {} if private else {"sigma": 0.0, "clip_bound": None}
        oracle = oracle_train_outcome(
            container, grad_mode="loop", grad_workers=1, **knobs
        )
        candidate = oracle_train_outcome(
            container, grad_mode=grad_mode, grad_workers=workers, **knobs
        )
        assert_outcomes_identical(
            candidate, oracle, label=f"{grad_mode}/workers={workers}"
        )

    @pytest.mark.parametrize("model", ["grat", "gin"])
    def test_vectorized_matches_loop_other_models(self, container, model):
        oracle = oracle_train_outcome(container, model=model, grad_mode="loop")
        candidate = oracle_train_outcome(
            container, model=model, grad_mode="vectorized"
        )
        assert_outcomes_identical(candidate, oracle, label=f"vectorized/{model}")

    def test_vectorized_kernels_off_matches_oracle(self, container, add_at_kernels):
        oracle = oracle_train_outcome(container, grad_mode="loop")
        with add_at_kernels():
            candidate = oracle_train_outcome(container, grad_mode="vectorized")
        assert_outcomes_identical(candidate, oracle, label="vectorized/add_at-oracle")

    def test_resume_across_mode_and_worker_change(self, container, tmp_path):
        """A vectorized 2-worker checkpoint resumes under loop 1-worker."""
        uninterrupted = oracle_train_outcome(
            container, iterations=6, grad_mode="loop", grad_workers=1
        )
        resumed = resumed_outcome(
            container,
            split_at=3,
            iterations=6,
            checkpoint_path=str(tmp_path / "xmode"),
            first={"grad_mode": "vectorized", "grad_workers": 2},
            second={"grad_mode": "loop", "grad_workers": 1},
        )
        assert_outcomes_identical(resumed, uninterrupted, label="resume v2->l1")

    def test_resume_into_vectorized_workers(self, container, tmp_path):
        """The reverse direction: loop checkpoint resumes under vectorized."""
        uninterrupted = oracle_train_outcome(
            container, iterations=6, grad_mode="loop", grad_workers=1
        )
        resumed = resumed_outcome(
            container,
            split_at=3,
            iterations=6,
            checkpoint_path=str(tmp_path / "xmode2"),
            first={"grad_mode": "loop", "grad_workers": 1},
            second={"grad_mode": "vectorized", "grad_workers": 2},
        )
        assert_outcomes_identical(resumed, uninterrupted, label="resume l1->v2")

    def test_fingerprint_excludes_grad_mode(self, container):
        config = DPTrainingConfig(
            iterations=4, batch_size=4, sigma=1.0, grad_mode="vectorized"
        )
        trainer = DPGNNTrainer(make_model(), container, config, rng=7)
        assert "grad_mode" not in trainer._fingerprint()
        trainer.close()

    def test_invalid_grad_mode_rejected(self):
        with pytest.raises(TrainingError, match="grad_mode"):
            DPTrainingConfig(grad_mode="turbo").validate()


class TestWorkerFaults:
    """Fault injection: dead or failing workers must never hang or
    partially reduce, and shared memory must never leak."""

    def _fanout(self, container, workers=2, grad_mode="vectorized"):
        return GradientFanout(
            make_model(),
            ComputePlanCache(container),
            PenaltyLossConfig(),
            1.0,
            workers,
            grad_mode=grad_mode,
        )

    def _segment_names(self, fanout):
        pool = fanout._pool
        return [
            pool._weights_shm.name,
            pool._indices_shm.name,
            pool._results_shm.name,
        ]

    def test_killed_worker_raises_clean_training_error(self, container):
        fanout = self._fanout(container)
        indices = np.arange(4)
        fanout.compute(indices)  # spin up the pool
        names = self._segment_names(fanout)
        os.kill(fanout._pool._processes[0].pid, signal.SIGKILL)
        with pytest.raises(TrainingError, match="died"):
            fanout.compute(indices)
        # The poisoned pool is torn down whole: no partial reduction is
        # possible and its shared memory is unlinked even on the error path.
        assert fanout._pool is None
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
        fanout.close()

    def test_worker_exception_propagates_with_cause(self, container):
        fanout = GradientFanout(
            make_model(),
            _PoisonedPlans(container),
            PenaltyLossConfig(),
            1.0,
            2,
            grad_mode="loop",
        )
        with pytest.raises(TrainingError, match="poisoned plan"):
            fanout.compute(np.arange(4))
        assert fanout._pool is None
        fanout.close()

    def test_shared_memory_unlinked_on_close(self, container):
        fanout = self._fanout(container)
        results, _ = fanout.compute(np.arange(4))
        assert len(results) == 4
        names = self._segment_names(fanout)
        fanout.close()
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_close_is_idempotent_and_context_managed(self, container):
        with self._fanout(container) as fanout:
            fanout.compute(np.arange(4))
            names = self._segment_names(fanout)
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
        fanout.close()  # second close is a no-op

    def test_pool_grows_for_larger_batches(self, container):
        fanout = GradientFanout(
            make_model(),
            ComputePlanCache(container),
            PenaltyLossConfig(),
            1.0,
            2,
            grad_mode="vectorized",
            max_batch=2,
        )
        try:
            first, _ = fanout.compute(np.arange(2))
            old_names = self._segment_names(fanout)
            second, _ = fanout.compute(np.arange(6))
            assert len(second) == 6
            for name in old_names:  # the undersized pool was unlinked
                with pytest.raises(FileNotFoundError):
                    shared_memory.SharedMemory(name=name)
        finally:
            fanout.close()
