"""Crash-safe training checkpoint/resume: bit-identity and fault injection.

The hard guarantee under test: a run killed at iteration t and resumed
from its checkpoint produces bit-identical weights, per-iteration losses,
and accountant ε to a run that was never interrupted — and no crash
(including one mid-checkpoint-write) can corrupt the previous checkpoint.
"""

import os

import numpy as np
import pytest

from repro.core.checkpoint import (
    load_model,
    load_training_checkpoint,
    normalize_checkpoint_path,
    save_model,
    save_training_checkpoint,
)
from repro.core.pipeline import PrivIMConfig, PrivIMStar
from repro.core.trainer import DPGNNTrainer, DPTrainingConfig
from repro.errors import TrainingError
from repro.gnn.models import build_gnn
from repro.graphs.generators import powerlaw_cluster_graph
from repro.nn.schedulers import StepDecayLR
from repro.sampling import DualStageSamplingConfig, sample_dual_stage


@pytest.fixture(scope="module")
def container():
    graph = powerlaw_cluster_graph(150, 3, 0.3, rng=4)
    config = DualStageSamplingConfig(
        subgraph_size=10, threshold=4, sampling_rate=0.8, walk_length=300
    )
    return sample_dual_stage(graph, config, rng=4).container


@pytest.fixture(scope="module")
def graph():
    return powerlaw_cluster_graph(200, 3, 0.3, rng=21)


def make_model():
    return build_gnn("gcn", hidden_features=8, num_layers=2, rng=0)


def weights_of(model):
    return np.concatenate([p.data.reshape(-1) for p in model.parameters()])


def crash_after(monkeypatch, steps):
    """Patch DPGNNTrainer.train_step to die after ``steps`` successful calls."""
    original = DPGNNTrainer.train_step
    calls = {"done": 0}

    def crashing(self):
        if calls["done"] == steps:
            raise RuntimeError("simulated kill -9")
        calls["done"] += 1
        return original(self)

    monkeypatch.setattr(DPGNNTrainer, "train_step", crashing)


class TestPathNormalization:
    def test_save_load_model_roundtrip_on_extensionless_path(self, tmp_path):
        """Regression: np.savez appends .npz, so save("ckpt")/load("ckpt")
        used to raise FileNotFoundError."""
        model = make_model()
        path = tmp_path / "ckpt"  # no extension
        save_model(model, path)
        assert (tmp_path / "ckpt.npz").exists()
        restored = load_model(path)
        for key, value in model.state_dict().items():
            np.testing.assert_array_equal(restored.state_dict()[key], value)

    def test_save_load_model_roundtrip_with_extension(self, tmp_path):
        model = make_model()
        path = tmp_path / "ckpt.npz"
        save_model(model, path)
        assert path.exists()
        load_model(path)

    def test_normalize_checkpoint_path(self):
        assert normalize_checkpoint_path("a/b/ckpt") == "a/b/ckpt.npz"
        assert normalize_checkpoint_path("a/b/ckpt.npz") == "a/b/ckpt.npz"

    def test_load_model_missing_file_raises_training_error(self, tmp_path):
        with pytest.raises(TrainingError, match="no model checkpoint"):
            load_model(tmp_path / "nope")

    def test_load_model_corrupt_file_raises_training_error(self, tmp_path):
        path = tmp_path / "bad.npz"
        path.write_bytes(b"this is not a zip archive")
        with pytest.raises(TrainingError):
            load_model(path)

    def test_load_model_npy_payload_raises_training_error(self, tmp_path):
        """A bare .npy array renamed .npz loads as an ndarray, which used to
        blow up with AttributeError when treated as an archive."""
        path = tmp_path / "weights.npz"
        with open(path, "wb") as handle:
            np.save(handle, np.zeros(3))
        with pytest.raises(TrainingError, match="not a repro model checkpoint"):
            load_model(path)

    def test_load_model_closes_archive_handle(self, tmp_path):
        """load_model must not leak a file handle per read (satellite audit:
        checked both via fd census and ResourceWarning-as-error)."""
        import gc
        import warnings

        model = make_model()
        path = tmp_path / "fd.npz"
        save_model(model, path)

        def open_fds():
            return len(os.listdir("/proc/self/fd"))

        load_model(path)  # warm any caches
        gc.collect()
        before = open_fds()
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            for _ in range(20):
                load_model(path)
            gc.collect()
        assert open_fds() == before


class TestBitIdenticalResume:
    def run_uninterrupted(self, container, iterations=8):
        model = make_model()
        config = DPTrainingConfig(iterations=iterations, batch_size=4, sigma=1.0)
        trainer = DPGNNTrainer(model, container, config, rng=7)
        history = trainer.train()
        return model, history, trainer.spent_epsilon(1e-4)

    def test_crash_and_resume_is_bit_identical(
        self, container, tmp_path, monkeypatch
    ):
        model_a, history_a, epsilon_a = self.run_uninterrupted(container)

        path = str(tmp_path / "train_ckpt")
        config = DPTrainingConfig(
            iterations=8, batch_size=4, sigma=1.0,
            checkpoint_every=2, checkpoint_path=path,
        )
        crash_after(monkeypatch, 5)
        crashed = DPGNNTrainer(make_model(), container, config, rng=7)
        with pytest.raises(RuntimeError, match="simulated kill"):
            crashed.train()
        monkeypatch.undo()

        # A different constructor seed proves the restored RNG streams,
        # not the fresh ones, drive the resumed run.
        model_b = make_model()
        resumed = DPGNNTrainer(model_b, container, config, rng=991)
        resumed.load_checkpoint(path)
        assert resumed._iteration == 4  # last multiple of checkpoint_every
        history_b = resumed.train()

        assert history_b.losses == history_a.losses
        assert history_b.gradient_norms == history_a.gradient_norms
        assert resumed.spent_epsilon(1e-4) == epsilon_a
        np.testing.assert_array_equal(weights_of(model_b), weights_of(model_a))

    def test_checkpoint_written_at_final_iteration(self, container, tmp_path):
        path = str(tmp_path / "final")
        config = DPTrainingConfig(
            iterations=3, batch_size=4, sigma=1.0,
            checkpoint_every=2, checkpoint_path=path,
        )
        trainer = DPGNNTrainer(make_model(), container, config, rng=0)
        trainer.train()
        state = load_training_checkpoint(path)
        assert state["iteration"] == 3
        assert state["accountant_steps"] == 3

    def test_resume_of_finished_run_is_a_noop(self, container, tmp_path):
        path = str(tmp_path / "done")
        config = DPTrainingConfig(
            iterations=4, batch_size=4, sigma=1.0,
            checkpoint_every=1, checkpoint_path=path,
        )
        model = make_model()
        trainer = DPGNNTrainer(model, container, config, rng=3)
        trainer.train()
        before = weights_of(model)
        again = DPGNNTrainer(make_model(), container, config, rng=3)
        again.load_checkpoint(path)
        history = again.train()
        assert history.iterations == 4
        np.testing.assert_array_equal(weights_of(again.model), before)
        assert again.accountant.steps == 4

    def test_scheduler_state_resumes(self, container, tmp_path):
        def run(trainer, scheduler):
            return trainer.train(scheduler)

        def build(path=None):
            model = make_model()
            config = DPTrainingConfig(
                iterations=6, batch_size=4, sigma=1.0,
                checkpoint_every=None if path is None else 3,
                checkpoint_path=path,
            )
            trainer = DPGNNTrainer(model, container, config, rng=11)
            scheduler = StepDecayLR(trainer.optimizer, period=2, gamma=0.5)
            return trainer, scheduler

        trainer_a, scheduler_a = build()
        history_a = run(trainer_a, scheduler_a)

        path = str(tmp_path / "sched")
        trainer_b, scheduler_b = build(path)
        trainer_b.config.iterations = 3  # stop early, checkpoint at 3
        run(trainer_b, scheduler_b)

        trainer_c, scheduler_c = build(path)
        trainer_c.load_checkpoint(path, scheduler=scheduler_c)
        assert scheduler_c.iteration == 3
        history_c = run(trainer_c, scheduler_c)

        assert history_c.losses == history_a.losses
        assert scheduler_c.iteration == scheduler_a.iteration
        assert trainer_c.optimizer.learning_rate == trainer_a.optimizer.learning_rate
        np.testing.assert_array_equal(
            weights_of(trainer_c.model), weights_of(trainer_a.model)
        )

    def test_nonprivate_trainer_checkpoints_without_accountant(
        self, container, tmp_path
    ):
        path = str(tmp_path / "np_ckpt")
        config = DPTrainingConfig(
            iterations=2, batch_size=4, sigma=0.0, clip_bound=None,
            checkpoint_every=1, checkpoint_path=path,
        )
        trainer = DPGNNTrainer(make_model(), container, config, rng=0)
        trainer.train()
        state = load_training_checkpoint(path)
        assert state["accountant_steps"] == 0


class TestResumeGuards:
    def make_checkpoint(self, container, tmp_path, **overrides):
        path = str(tmp_path / "guard")
        settings = dict(iterations=2, batch_size=4, sigma=1.0,
                        checkpoint_every=1, checkpoint_path=path)
        settings.update(overrides)
        config = DPTrainingConfig(**settings)
        trainer = DPGNNTrainer(make_model(), container, config, rng=0)
        trainer.train()
        return path

    def test_mismatched_sigma_rejected(self, container, tmp_path):
        path = self.make_checkpoint(container, tmp_path)
        other = DPTrainingConfig(iterations=4, batch_size=4, sigma=2.0)
        trainer = DPGNNTrainer(make_model(), container, other, rng=0)
        with pytest.raises(TrainingError, match="privacy-relevant"):
            trainer.load_checkpoint(path)

    def test_mismatched_batch_size_rejected(self, container, tmp_path):
        path = self.make_checkpoint(container, tmp_path)
        other = DPTrainingConfig(iterations=4, batch_size=5, sigma=1.0)
        trainer = DPGNNTrainer(make_model(), container, other, rng=0)
        with pytest.raises(TrainingError, match="privacy-relevant"):
            trainer.load_checkpoint(path)

    def test_private_checkpoint_rejected_by_nonprivate_trainer(
        self, container, tmp_path
    ):
        path = self.make_checkpoint(container, tmp_path)
        nonprivate = DPTrainingConfig(
            iterations=4, batch_size=4, sigma=0.0, clip_bound=None
        )
        trainer = DPGNNTrainer(make_model(), container, nonprivate, rng=0)
        with pytest.raises(TrainingError):
            trainer.load_checkpoint(path)

    def test_checkpoint_config_validation(self):
        with pytest.raises(TrainingError):
            DPTrainingConfig(checkpoint_every=0, checkpoint_path="x").validate()
        with pytest.raises(TrainingError):
            DPTrainingConfig(checkpoint_every=2).validate()

    def test_save_without_path_raises(self, container):
        config = DPTrainingConfig(iterations=1, batch_size=4, sigma=1.0)
        trainer = DPGNNTrainer(make_model(), container, config, rng=0)
        with pytest.raises(TrainingError, match="no checkpoint path"):
            trainer.save_checkpoint()


class TestFaultInjection:
    def fresh_checkpoint(self, container, tmp_path, name="fault"):
        path = str(tmp_path / name)
        config = DPTrainingConfig(
            iterations=2, batch_size=4, sigma=1.0,
            checkpoint_every=1, checkpoint_path=path,
        )
        trainer = DPGNNTrainer(make_model(), container, config, rng=5)
        trainer.train()
        return trainer, normalize_checkpoint_path(path)

    def test_kill_mid_write_leaves_previous_checkpoint_intact(
        self, container, tmp_path, monkeypatch
    ):
        trainer, path = self.fresh_checkpoint(container, tmp_path)
        good = open(path, "rb").read()

        def exploding_replace(src, dst):
            raise OSError("simulated crash during rename")

        monkeypatch.setattr(os, "replace", exploding_replace)
        trainer.train_step()
        with pytest.raises(OSError, match="simulated crash"):
            trainer.save_checkpoint(path)
        monkeypatch.undo()

        assert open(path, "rb").read() == good  # previous checkpoint untouched
        assert not [n for n in os.listdir(tmp_path) if ".tmp." in n]
        load_training_checkpoint(path)  # still loads cleanly

    def test_truncated_file_raises_clean_error(self, container, tmp_path):
        _, path = self.fresh_checkpoint(container, tmp_path)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[: len(blob) // 2])
        with pytest.raises(TrainingError, match="truncated"):
            load_training_checkpoint(path)

    def test_corrupted_payload_fails_checksum(self, container, tmp_path):
        _, path = self.fresh_checkpoint(container, tmp_path)
        blob = bytearray(open(path, "rb").read())
        blob[-10] ^= 0xFF  # flip one payload bit
        open(path, "wb").write(bytes(blob))
        with pytest.raises(TrainingError, match="checksum"):
            load_training_checkpoint(path)

    def test_garbage_file_raises_clean_error(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"REPRO-but-not-really\njunk")
        with pytest.raises(TrainingError, match="not a repro training checkpoint"):
            load_training_checkpoint(path)

    def test_malformed_header_raises_clean_error(self, tmp_path):
        path = tmp_path / "header.npz"
        path.write_bytes(b"REPRO-CKPT-v1 sha256=zz size=notanint\npayload")
        with pytest.raises(TrainingError, match="malformed"):
            load_training_checkpoint(path)

    def test_model_archive_is_not_a_training_checkpoint(self, tmp_path):
        path = tmp_path / "model.npz"
        save_model(make_model(), path)
        with pytest.raises(TrainingError, match="not a repro training checkpoint"):
            load_training_checkpoint(path)

    def test_missing_file_raises_clean_error(self, tmp_path):
        with pytest.raises(TrainingError, match="no training checkpoint"):
            load_training_checkpoint(tmp_path / "missing")

    def test_save_returns_normalized_path(self, container, tmp_path):
        trainer, _ = self.fresh_checkpoint(container, tmp_path)
        written = save_training_checkpoint(
            trainer.state_dict(), tmp_path / "explicit"
        )
        assert written.endswith("explicit.npz")
        assert os.path.exists(written)


def pipeline_config(**overrides):
    defaults = dict(
        epsilon=4.0,
        subgraph_size=10,
        threshold=4,
        iterations=6,
        batch_size=4,
        sampling_rate=0.6,
        hidden_features=8,
        num_layers=2,
        walk_length=200,
        rng=5,
    )
    defaults.update(overrides)
    return PrivIMConfig(**defaults)


class TestPipelineResume:
    def test_crash_resume_matches_uninterrupted(self, graph, tmp_path, monkeypatch):
        uninterrupted = PrivIMStar(pipeline_config())
        full = uninterrupted.fit(graph)

        path = str(tmp_path / "pipeline_ckpt")
        crashing_config = pipeline_config(checkpoint_every=2, checkpoint_path=path)
        crash_after(monkeypatch, 3)
        with pytest.raises(RuntimeError, match="simulated kill"):
            PrivIMStar(crashing_config).fit(graph)
        monkeypatch.undo()
        assert load_training_checkpoint(path)["iteration"] == 2

        resumed_pipeline = PrivIMStar(
            pipeline_config(checkpoint_every=2, checkpoint_path=path, resume=True)
        )
        resumed = resumed_pipeline.fit(graph)

        assert resumed.history.losses == full.history.losses
        assert resumed.epsilon == full.epsilon
        assert resumed.sigma == full.sigma
        np.testing.assert_array_equal(
            weights_of(resumed_pipeline.model), weights_of(uninterrupted.model)
        )
        assert resumed_pipeline.select_seeds(graph, 5) == uninterrupted.select_seeds(
            graph, 5
        )

    def test_resume_without_path_raises(self, graph):
        pipeline = PrivIMStar(pipeline_config(resume=True))
        with pytest.raises(TrainingError, match="checkpoint_path"):
            pipeline.fit(graph)

    def test_resume_with_missing_file_starts_fresh(self, graph, tmp_path):
        path = str(tmp_path / "fresh_start")
        pipeline = PrivIMStar(
            pipeline_config(checkpoint_every=2, checkpoint_path=path, resume=True)
        )
        result = pipeline.fit(graph)
        assert result.history.iterations == 6
        assert os.path.exists(normalize_checkpoint_path(path))


class TestCLICheckpointResume:
    CLI_BASE = [
        "train",
        "--dataset", "lastfm",
        "--scale", "0.03",
        "--iterations", "4",
        "--subgraph-size", "10",
        "--k", "5",
        "--seed", "3",
    ]

    def test_cli_crash_resume_bit_identical(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        full_model = str(tmp_path / "full_model.npz")
        assert main(self.CLI_BASE + ["--save", full_model]) == 0

        ckpt = str(tmp_path / "cli_ckpt")
        crash_after(monkeypatch, 2)
        with pytest.raises(RuntimeError, match="simulated kill"):
            main(self.CLI_BASE + ["--checkpoint", ckpt, "--checkpoint-every", "2"])
        monkeypatch.undo()

        resumed_model = str(tmp_path / "resumed_model.npz")
        assert main(
            self.CLI_BASE
            + ["--checkpoint", ckpt, "--checkpoint-every", "2", "--resume",
               "--save", resumed_model]
        ) == 0
        assert "resumed" in capsys.readouterr().out

        full = load_model(full_model).state_dict()
        resumed = load_model(resumed_model).state_dict()
        for key, value in full.items():
            np.testing.assert_array_equal(resumed[key], value)

    def test_cli_resume_requires_checkpoint(self, capsys):
        from repro.cli import main

        assert main(self.CLI_BASE + ["--resume"]) == 2
        assert "--checkpoint" in capsys.readouterr().err
