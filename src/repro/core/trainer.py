"""Algorithm 2 — differentially private GNN training.

Each iteration:

1. sample ``B`` subgraphs uniformly from the container (line 3);
2. treat every subgraph as one "example": forward, Eq. 5 loss, backward,
   flatten the parameter gradient and clip it to l2-norm ``C`` (lines 4–6);
3. sum the clipped gradients and add ``N(0, σ²Δ_g²I)`` with
   ``Δ_g = C · N_g`` (lines 7–8);
4. apply the averaged private gradient with learning rate η (line 9).

Setting ``sigma = 0`` and ``clip_bound = None`` turns the same loop into
the Non-Private reference trainer (ε = ∞).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.compute_plan import ComputePlanCache
from repro.core.grad_fanout import (
    GRAD_MODES,
    GradientFanout,
    resolve_workers,
    subgraph_gradient,
)
from repro.core.loss import PenaltyLossConfig
from repro.obs import Observability, ensure_obs
from repro.dp.accountant import PrivacyAccountant
from repro.dp.mechanisms import gaussian_noise
from repro.dp.sensitivity import node_level_sensitivity
from repro.errors import PrivacyError, TrainingError
from repro.gnn.models import GNN
from repro.nn.optim import SGD
from repro.sampling.container import Subgraph, SubgraphContainer, SubgraphSource
from repro.utils.rng import (
    ensure_rng,
    restore_rng_state,
    serialize_rng_state,
    spawn_rngs,
)


@dataclass
class DPTrainingConfig:
    """Hyperparameters of Algorithm 2 (paper defaults from Section V-A).

    Attributes:
        iterations: training iterations ``T``.
        batch_size: subgraphs per batch ``B``.
        learning_rate: η (paper: 0.005; the default here is larger because
            the scaled graphs need fewer, coarser steps).
        clip_bound: per-subgraph gradient norm bound ``C``; ``None``
            disables clipping (non-private mode only).
        sigma: noise multiplier; 0 disables noise (non-private mode).
        max_occurrences: occurrence bound ``N_g`` used in ``Δ_g = C · N_g``.
        loss: Eq. 5 configuration.
        checkpoint_every: write a training-state checkpoint every this many
            iterations (and at the final one); ``None`` disables
            checkpointing.
        checkpoint_path: where the checkpoint is written (``.npz`` appended
            if missing).  Required when ``checkpoint_every`` is set.
        grad_workers: processes for the per-subgraph gradient fan-out
            (1 = in-process serial, 0 = one per CPU).  Purely an execution
            detail: results are bit-identical for every value, so it is
            deliberately absent from the checkpoint privacy fingerprint.
        grad_mode: per-batch gradient execution strategy —
            ``"vectorized"`` (default) runs one forward/backward over the
            disjoint union of the batch's subgraphs with per-example
            segment capture; ``"loop"`` runs one pass per subgraph (the
            differential-testing oracle).  Like ``grad_workers`` this is
            an execution detail with byte-identical results, excluded from
            the checkpoint privacy fingerprint.
    """

    iterations: int = 30
    batch_size: int = 8
    learning_rate: float = 0.05
    clip_bound: float | None = 1.0
    sigma: float = 1.0
    max_occurrences: int = 4
    loss: PenaltyLossConfig = field(default_factory=PenaltyLossConfig)
    checkpoint_every: int | None = None
    checkpoint_path: str | None = None
    grad_workers: int = 1
    grad_mode: str = "vectorized"

    def validate(self) -> None:
        """Raise :class:`TrainingError` on invalid settings."""
        if self.iterations < 1:
            raise TrainingError(f"iterations must be >= 1, got {self.iterations}")
        if self.batch_size < 1:
            raise TrainingError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.learning_rate <= 0:
            raise TrainingError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.clip_bound is not None and self.clip_bound <= 0:
            raise TrainingError(f"clip_bound must be positive, got {self.clip_bound}")
        if self.sigma < 0:
            raise TrainingError(f"sigma must be >= 0, got {self.sigma}")
        if self.sigma > 0 and self.clip_bound is None:
            raise TrainingError("noise requires a finite clip_bound (sensitivity = C·N_g)")
        if self.max_occurrences < 1:
            raise TrainingError(f"max_occurrences must be >= 1, got {self.max_occurrences}")
        if self.grad_workers < 0:
            raise TrainingError(f"grad_workers must be >= 0, got {self.grad_workers}")
        if self.grad_mode not in GRAD_MODES:
            raise TrainingError(
                f"grad_mode must be one of {GRAD_MODES}, got {self.grad_mode!r}"
            )
        if self.checkpoint_every is not None:
            if self.checkpoint_every < 1:
                raise TrainingError(
                    f"checkpoint_every must be >= 1, got {self.checkpoint_every}"
                )
            if not self.checkpoint_path:
                raise TrainingError("checkpoint_every requires a checkpoint_path")
        self.loss.validate()

    @property
    def is_private(self) -> bool:
        """Whether this configuration injects DP noise."""
        return self.sigma > 0 and self.clip_bound is not None


@dataclass
class TrainingHistory:
    """Per-iteration records emitted by :class:`DPGNNTrainer.train`.

    Attributes:
        losses: mean per-subgraph loss of each batch (pre-noise).
        gradient_norms: pre-clip gradient norms (diagnostics for C tuning).
        seconds: wall-clock duration of each iteration.
    """

    losses: list[float] = field(default_factory=list)
    gradient_norms: list[float] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return len(self.losses)

    @property
    def total_seconds(self) -> float:
        return float(sum(self.seconds))


class DPGNNTrainer:
    """Runs Algorithm 2 on a model and a subgraph source.

    ``container`` is anything satisfying :class:`~repro.sampling.container.
    SubgraphSource` — the in-memory :class:`SubgraphContainer` or the
    mmap-backed :class:`~repro.sampling.store.SubgraphStore`.  Results are
    bit-identical across sources holding the same subgraphs in the same
    order; only memory behaviour differs (the store keeps the compute-plan
    cache LRU-bounded so RSS stays flat in the pool size).
    """

    def __init__(
        self,
        model: GNN,
        container: SubgraphSource | SubgraphContainer,
        config: DPTrainingConfig,
        rng: int | np.random.Generator | None = None,
        *,
        noise_fn=None,
        obs: Observability | None = None,
    ) -> None:
        config.validate()
        if len(container) == 0:
            raise TrainingError("subgraph container is empty; sample subgraphs first")
        if config.batch_size > len(container):
            raise TrainingError(
                f"batch_size {config.batch_size} exceeds container size {len(container)}"
            )
        self.model = model
        self.container = container
        self.config = config
        self.obs = ensure_obs(obs)
        # Pool size at construction.  The accountant's subsampling ratio and
        # the batch-RNG picks are both functions of len(container), so a
        # pool mutated mid-training (e.g. extend() from a later sampling
        # round) would silently invalidate the accounted ε; train_step
        # refuses to continue instead.
        self._pool_size = len(container)
        self._batch_rng, self._noise_rng = spawn_rngs(ensure_rng(rng), 2)
        # Pluggable noise distribution: Algorithm 2 uses the Gaussian
        # mechanism; the HP baseline swaps in Symmetric Multivariate
        # Laplace noise of matching scale.
        self.noise_fn = noise_fn if noise_fn is not None else gaussian_noise
        self.optimizer = SGD(model.parameters(), config.learning_rate)
        self.accountant: PrivacyAccountant | None = None
        if config.is_private:
            self.accountant = PrivacyAccountant(
                sigma=config.sigma,
                batch_size=config.batch_size,
                num_subgraphs=len(container),
                max_occurrences=config.max_occurrences,
            )
        # Static per-subgraph compute plans (edge arrays, normalisations,
        # sort permutations), built once per container; degree features
        # are stored on each subgraph's graph and outlive the trainer.
        # For an on-disk source an unbounded cache would re-materialise
        # the whole pool in RAM, so it is LRU-bounded to a few batches'
        # worth of plans.
        if getattr(container, "in_memory", True):
            self._plans = ComputePlanCache(container)
        else:
            bound = max(32, 3 * config.batch_size)
            self._plans = ComputePlanCache(container, max_plans=bound)
        self._fanout: GradientFanout | None = None
        # Diagnostics of the most recent train_step (observability only).
        self._last_clip_fraction = 0.0
        self._last_noise_norm = 0.0
        # Every distinct noise scale σ·Δ_g handed to noise_fn; train()
        # checks it against σ·C·N_g.
        self._noise_scales: set[float] = set()
        # Resumable progress: completed iterations and their records.  A
        # restored checkpoint overwrites both, so train() continues exactly
        # where the interrupted run stopped.
        self._iteration = 0
        self.history = TrainingHistory()

    # ------------------------------------------------------------------ #
    def _subgraph_gradient(self, index: int, subgraph: Subgraph) -> tuple[np.ndarray, float, float]:
        """Per-subgraph clipped gradient, loss value, and pre-clip norm.

        ``subgraph`` must be ``container[index]``; it is accepted for
        call-site clarity while the compute plan is looked up by index.
        """
        del subgraph  # the plan cache serves the container's subgraphs
        return subgraph_gradient(
            self.model,
            self._plans.plan(int(index)),
            self.config.loss,
            self.config.clip_bound,
        )

    def _ensure_fanout(self) -> GradientFanout:
        if self._fanout is None:
            workers = resolve_workers(self.config.grad_workers)
            if workers > 1 and getattr(self.container, "in_memory", True):
                # Build every plan before forking so workers inherit the
                # static arrays copy-on-write instead of each rebuilding
                # them from the container.  On-disk sources skip this:
                # prebuilding would materialise the whole pool, and workers
                # page records in on demand through their own store handle.
                self._plans.prebuild(self.model.config.in_features)
            self._fanout = GradientFanout(
                self.model,
                self._plans,
                self.config.loss,
                self.config.clip_bound,
                workers,
                grad_mode=self.config.grad_mode,
                max_batch=self.config.batch_size,
            )
        return self._fanout

    def close(self) -> None:
        """Release the gradient worker pool (safe to call repeatedly)."""
        if self._fanout is not None:
            self._fanout.close()
            self._fanout = None

    def train_step(self) -> tuple[float, float]:
        """One Algorithm 2 iteration; returns (mean loss, mean raw norm)."""
        if len(self.container) != self._pool_size:
            raise TrainingError(
                f"subgraph pool size changed mid-training ({self._pool_size} "
                f"-> {len(self.container)}); the accountant's subsampling "
                "ratio and the batch picks both depend on it, so continuing "
                "would invalidate the accounted epsilon"
            )
        batch_indices = self._batch_rng.choice(
            len(self.container), size=self.config.batch_size, replace=False
        )
        fanout = self._ensure_fanout()
        with self.obs.span("train.grad.fanout"):
            results, kernel_stats = fanout.compute(batch_indices)
        # Deterministic left-to-right reduction in batch-index order: the
        # same float additions, in the same order, as the serial loop — so
        # the private gradient is bit-identical for every grad_workers.
        gradient_sum: np.ndarray | None = None
        losses: list[float] = []
        norms: list[float] = []
        for gradient, loss_value, raw_norm in results:
            gradient_sum = gradient if gradient_sum is None else gradient_sum + gradient
            losses.append(loss_value)
            norms.append(raw_norm)

        observing = self.obs.enabled
        if observing:
            for name, value in kernel_stats.items():
                self.obs.counter(f"train.kernel.{name}").inc(value)
        if observing:
            if self.config.clip_bound is not None:
                self._last_clip_fraction = float(
                    np.mean(np.asarray(norms) > self.config.clip_bound)
                )
            else:
                self._last_clip_fraction = 0.0
            self._last_noise_norm = 0.0

        if self.config.is_private:
            sensitivity = node_level_sensitivity(
                self.config.clip_bound, self.config.max_occurrences
            )
            self._noise_scales.add(self.config.sigma * sensitivity)
            noise = self.noise_fn(
                sensitivity, self.config.sigma, gradient_sum.shape, self._noise_rng
            )
            gradient_sum = gradient_sum + noise
            if observing:
                self._last_noise_norm = float(np.linalg.norm(noise))
            self.accountant.step()

        if observing:
            self.obs.gauge("train.clip_fraction").set(self._last_clip_fraction)
            self.obs.gauge("train.noise_norm").set(self._last_noise_norm)

        self.model.apply_gradient_vector(gradient_sum / self.config.batch_size)
        self.optimizer.step()
        return float(np.mean(losses)), float(np.mean(norms))

    def train(self, scheduler=None) -> TrainingHistory:
        """Run the remaining iterations up to ``T`` and return the history.

        On a fresh trainer this runs all ``T`` iterations.  After
        :meth:`load_checkpoint` it continues from the checkpointed
        iteration, and the completed run is bit-identical (weights,
        per-iteration losses, accountant ε) to one that was never
        interrupted.  When ``config.checkpoint_every`` is set, a
        crash-safe checkpoint is written every that many iterations and
        after the final one.  A private run ends with
        :meth:`check_privacy`, which raises :class:`PrivacyError` if the
        accounted ε no longer describes what was released.

        Args:
            scheduler: optional :class:`repro.nn.schedulers.LRScheduler`
                stepped once per iteration (η_t in Algorithm 2).  The
                schedule depends only on the iteration index, so it is
                public and costs no privacy budget.
        """
        config = self.config
        obs = self.obs
        try:
            while self._iteration < config.iterations:
                with obs.span("train.iteration") as span:
                    loss_value, raw_norm = self.train_step()
                    if scheduler is not None:
                        scheduler.step()
                self._iteration += 1
                self.history.losses.append(loss_value)
                self.history.gradient_norms.append(raw_norm)
                self.history.seconds.append(span.seconds)
                if obs.enabled:
                    obs.event(
                        "iteration",
                        iteration=self._iteration,
                        loss=loss_value,
                        gradient_norm=raw_norm,
                        clip_fraction=self._last_clip_fraction,
                        noise_norm=self._last_noise_norm,
                        seconds=span.seconds,
                    )
                if config.checkpoint_every is not None and (
                    self._iteration % config.checkpoint_every == 0
                    or self._iteration == config.iterations
                ):
                    self.save_checkpoint(scheduler=scheduler)
            self.check_privacy()
        finally:
            # Release the gradient pool between runs; a later train() or
            # train_step() call simply recreates it.
            self.close()
        return self.history

    def check_privacy(self) -> None:
        """Check the invariants the accounted ε rests on (private runs only).

        * the accountant recorded one step per completed iteration;
        * its (σ, B, m, N_g) are the configured σ, batch size, pool size
          and occurrence bound;
        * every noise scale handed to ``noise_fn`` was σ·C·N_g;
        * an attached ledger's final ε equals ``accountant.epsilon(δ)``
          bit for bit (one ε evaluation, only when a ledger is attached).

        On a mismatch, emits one ``privacy_error`` event and raises
        :class:`PrivacyError`.
        """
        accountant = self.accountant
        if accountant is None:
            return
        config = self.config
        problems = []
        if accountant.steps != self._iteration:
            problems.append(
                f"accountant recorded {accountant.steps} steps for "
                f"{self._iteration} completed iterations"
            )
        accounted = (
            accountant.sigma,
            accountant.batch_size,
            accountant.num_subgraphs,
            accountant.max_occurrences,
        )
        configured = (
            config.sigma, config.batch_size, self._pool_size, config.max_occurrences
        )
        if accounted != configured:
            problems.append(
                f"accountant (sigma, B, m, N_g) = {accounted}, "
                f"training ran with {configured}"
            )
        scale = config.sigma * (float(config.clip_bound) * float(config.max_occurrences))
        wrong_scales = sorted(value for value in self._noise_scales if value != scale)
        if wrong_scales:
            problems.append(
                f"noise scales {wrong_scales} were handed to the mechanism, "
                f"not sigma*C*N_g = {scale}"
            )
        ledger = accountant.ledger
        if ledger is not None and ledger.events:
            spent = accountant.epsilon(ledger.delta)
            if ledger.final_epsilon != spent:
                problems.append(
                    f"ledger epsilon {ledger.final_epsilon} differs from the "
                    f"accountant's {spent} at delta={ledger.delta}"
                )
        if problems:
            self.obs.event(
                "privacy_error", iteration=self._iteration, problems=problems
            )
            raise PrivacyError("run-time privacy check failed: " + "; ".join(problems))

    # ------------------------------------------------------------------ #
    # Checkpoint / resume
    # ------------------------------------------------------------------ #
    def _fingerprint(self) -> dict:
        """Settings a checkpoint must agree on for resume to stay private.

        Resuming against a different σ, clip bound, batch size, occurrence
        bound, or container silently changes what each recorded accountant
        step meant, so :meth:`load_state_dict` rejects any mismatch.
        ``iterations`` is deliberately excluded — extending ``T`` is how a
        finished run is legitimately continued (with ε re-accounted).
        ``grad_workers`` and ``grad_mode`` are likewise excluded on
        purpose: they are execution details with bit-identical
        results, so a checkpoint written by a 2-worker vectorized run must
        resume under 1 worker in loop mode (or any other combination)
        without re-accounting anything.
        """
        config = self.config
        return {
            "sigma": float(config.sigma),
            "clip_bound": None if config.clip_bound is None else float(config.clip_bound),
            "batch_size": int(config.batch_size),
            "max_occurrences": int(config.max_occurrences),
            "num_subgraphs": len(self.container),
        }

    def state_dict(self, scheduler=None) -> dict:
        """Complete training state: everything resume needs for bit-identity.

        Captures the model weights, optimizer buffers, both RNG streams,
        the accountant's step count, the per-iteration history, and (when
        given) the scheduler's progress.
        """
        return {
            "iteration": int(self._iteration),
            "model": self.model.state_dict(),
            "optimizer": self.optimizer.state_dict(),
            "batch_rng": serialize_rng_state(self._batch_rng),
            "noise_rng": serialize_rng_state(self._noise_rng),
            "accountant_steps": int(self.accountant.steps) if self.accountant else 0,
            "scheduler": None if scheduler is None else scheduler.state_dict(),
            "fingerprint": self._fingerprint(),
            "history": {
                "losses": [float(value) for value in self.history.losses],
                "gradient_norms": [float(value) for value in self.history.gradient_norms],
                "seconds": [float(value) for value in self.history.seconds],
            },
        }

    def load_state_dict(self, state: dict, scheduler=None) -> None:
        """Restore :meth:`state_dict` output; subsequent draws/steps are
        bit-identical to the run that produced the snapshot."""
        fingerprint = state.get("fingerprint")
        if fingerprint is not None and fingerprint != self._fingerprint():
            raise TrainingError(
                "checkpoint does not match this trainer's privacy-relevant "
                f"settings (checkpoint {fingerprint}, trainer {self._fingerprint()}); "
                "resuming would invalidate the accounted epsilon"
            )
        steps = int(state.get("accountant_steps", 0))
        if self.accountant is None and steps:
            raise TrainingError(
                "checkpoint carries accounted privacy steps but this trainer "
                "is non-private"
            )
        self.model.load_state_dict(state["model"])
        self.model.zero_grad()
        self.optimizer.load_state_dict(state["optimizer"])
        restore_rng_state(self._batch_rng, state["batch_rng"])
        restore_rng_state(self._noise_rng, state["noise_rng"])
        if self.accountant is not None:
            self.accountant.steps = steps
        history = state.get("history", {})
        self.history = TrainingHistory(
            losses=[float(value) for value in history.get("losses", [])],
            gradient_norms=[float(value) for value in history.get("gradient_norms", [])],
            seconds=[float(value) for value in history.get("seconds", [])],
        )
        self._iteration = int(state["iteration"])
        if scheduler is not None and state.get("scheduler") is not None:
            scheduler.load_state_dict(state["scheduler"])

    def save_checkpoint(self, path: str | None = None, *, scheduler=None) -> str:
        """Atomically write the full training state; returns the path used."""
        from repro.core.checkpoint import save_training_checkpoint

        target = path if path is not None else self.config.checkpoint_path
        if target is None:
            raise TrainingError("no checkpoint path given or configured")
        with self.obs.span("train.checkpoint_write") as span:
            written = save_training_checkpoint(self.state_dict(scheduler=scheduler), target)
        self.obs.event(
            "checkpoint",
            action="write",
            path=written,
            iteration=self._iteration,
            seconds=span.seconds,
        )
        return written

    def load_checkpoint(self, path: str | None = None, *, scheduler=None) -> "DPGNNTrainer":
        """Restore a checkpoint written by :meth:`save_checkpoint`."""
        from repro.core.checkpoint import load_training_checkpoint

        target = path if path is not None else self.config.checkpoint_path
        if target is None:
            raise TrainingError("no checkpoint path given or configured")
        with self.obs.span("train.checkpoint_restore") as span:
            self.load_state_dict(load_training_checkpoint(target), scheduler=scheduler)
        self.obs.event(
            "checkpoint",
            action="restore",
            path=target,
            iteration=self._iteration,
            seconds=span.seconds,
        )
        return self

    def spent_epsilon(self, delta: float) -> float:
        """(ε, δ)-DP spent so far; ``inf`` in the non-private mode."""
        if self.accountant is None:
            return float("inf")
        return self.accountant.epsilon(delta)


def suggest_clip_bound(
    model: GNN,
    container: SubgraphContainer,
    *,
    quantile: float = 0.75,
    sample_size: int = 32,
    loss_config: PenaltyLossConfig | None = None,
    rng: int | np.random.Generator | None = None,
) -> float:
    """Empirical clip-bound suggestion: a quantile of raw gradient norms.

    Standard DP-SGD practice: pick ``C`` near the median/upper-quartile of
    the *unclipped* per-example gradient norms at initialisation, so most
    gradients pass unclipped while outliers are bounded.  Run this on a
    public or synthetic surrogate graph — gradient norms are data-dependent,
    so tuning ``C`` on the private data itself would leak outside the
    accounted budget.

    Args:
        model: a freshly initialised model (it is not modified; gradients
            are computed and discarded).
        container: subgraphs to probe.
        quantile: norm quantile to return.
        sample_size: how many subgraphs to probe (all, if fewer).
        loss_config: Eq. 5 settings (defaults).
        rng: seed or generator for the probe sample.

    Returns:
        The suggested clip bound ``C``.
    """
    if not 0.0 < quantile <= 1.0:
        raise TrainingError(f"quantile must be in (0, 1], got {quantile}")
    if len(container) == 0:
        raise TrainingError("container is empty")
    generator = ensure_rng(rng)
    count = min(sample_size, len(container))
    indices = generator.choice(len(container), size=count, replace=False)

    probe_config = DPTrainingConfig(
        iterations=1,
        batch_size=1,
        learning_rate=1e-9,
        clip_bound=None,
        sigma=0.0,
        loss=loss_config or PenaltyLossConfig(),
    )
    snapshot = model.state_dict()
    trainer = DPGNNTrainer(model, container, probe_config, generator)
    norms = [
        trainer._subgraph_gradient(int(index), container[int(index)])[2]
        for index in indices
    ]
    model.load_state_dict(snapshot)  # restore (gradients probed only)
    model.zero_grad()
    return float(np.quantile(norms, quantile))
