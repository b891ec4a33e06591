"""End-to-end PrivIM pipelines (Figure 2's three modules wired together).

:class:`PrivIM` is the naive implementation (Section III): θ-projection +
Algorithm 1 sampling, with occurrence bound ``N_g = Σ θ^i`` (Lemma 1).

:class:`PrivIMStar` is the dual-stage implementation (Section IV):
Algorithm 3 sampling with occurrence bound ``N_g* = M``; pass
``include_boundary=False`` for the "PrivIM+SCS" ablation row of Table II.

Both calibrate the Gaussian noise multiplier σ to a target ``(ε, δ)`` with
the Theorem 3 accountant, train with Algorithm 2, and select seeds by model
score.  ``epsilon=None`` gives the Non-Private reference (ε = ∞).
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.checkpoint import normalize_checkpoint_path
from repro.core.loss import PenaltyLossConfig
from repro.core.seed_selection import score_nodes, select_top_k_seeds
from repro.core.trainer import DPGNNTrainer, DPTrainingConfig, TrainingHistory
from repro.dp.accountant import calibrate_sigma
from repro.dp.sensitivity import max_occurrences_dual_stage, max_occurrences_naive
from repro.errors import SamplingError, TrainingError
from repro.gnn.models import build_gnn
from repro.graphs.graph import Graph
from repro.obs import Observability, PrivacyLedger, ensure_obs
from repro.sampling.container import SubgraphContainer
from repro.sampling.dual_stage import DualStageSamplingConfig
from repro.sampling.naive import NaiveSamplingConfig
from repro.sampling.parallel import SamplingStats, sample_dual_stage, sample_naive
from repro.sampling.store import SubgraphStoreWriter
from repro.utils.rng import ensure_rng, spawn_rngs


@dataclass
class PrivIMConfig:
    """Shared configuration of both pipelines (paper defaults, Section V-A).

    Attributes:
        epsilon: target privacy budget ε (``None`` = non-private, ε = ∞).
        delta: target δ; default ``1 / (2 |V_train|)``, satisfying the
            paper's ``δ < 1/|V_train|``.
        model: GNN architecture (``grat``, ``gcn``, ``gat``, ``gin``,
            ``sage``).
        hidden_features: hidden width (paper: 32).
        num_layers: GNN depth r (paper: 3).
        theta: in-degree bound for the naive pipeline (paper: 10).
        subgraph_size: ``n``.
        threshold: frequency cap ``M`` (dual-stage only).
        decay: Eq. 9's μ.
        sampling_rate: start-node rate ``q``; default ``256 / |V_train|``.
        walk_length: ``L`` (paper: 200).
        restart_probability: τ (paper: 0.3).
        boundary_divisor: stage-2 size divisor ``s``.
        iterations: training iterations ``T``.
        batch_size: ``B`` (clamped to the container size at fit time).
        learning_rate: η (paper: 0.005; the default here is larger because
            the scaled graphs need fewer, coarser steps).
        clip_bound: per-subgraph clip norm ``C``.
        penalty: Eq. 5's λ.
        diffusion_steps: Eq. 5's j (paper evaluates j = 1).
        grad_workers: worker processes for the per-subgraph gradient
            fan-out inside each training iteration (1 = serial, 0 = one
            per CPU).  A pure throughput knob: bit-identical weights,
            losses, and ε for any value — see :mod:`repro.core.grad_fanout`.
        grad_mode: gradient execution strategy — ``"vectorized"`` (one
            disjoint-union pass per batch, the default) or ``"loop"`` (one
            pass per subgraph); byte-identical results either way.
        checkpoint_every: write a crash-safe training checkpoint every this
            many iterations (``None`` disables checkpointing).
        checkpoint_path: training-checkpoint file (``.npz`` appended when
            missing); required when ``checkpoint_every`` is set.
        resume: restore ``checkpoint_path`` before training if it exists,
            continuing a killed run with bit-identical weights, losses, and
            accountant ε; when the file does not exist yet the run starts
            fresh (first launch of a crash-restart loop).
        subgraph_store: directory to spill the sampled pool to as an
            on-disk :class:`~repro.sampling.store.SubgraphStore` (created
            fresh; must not already hold a store).  Training then reads
            subgraphs through mmap instead of keeping the pool in RAM, so
            memory stays flat however large ``num_subgraphs`` grows —
            with bit-identical weights, losses, and ε versus the in-memory
            pool.  ``None`` (default) keeps the pool in memory.
        rng: master seed for the whole pipeline.
    """

    epsilon: float | None = 4.0
    delta: float | None = None
    model: str = "grat"
    hidden_features: int = 32
    num_layers: int = 3
    theta: int = 10
    subgraph_size: int = 40
    threshold: int = 4
    decay: float = 1.0
    sampling_rate: float | None = None
    walk_length: int = 200
    restart_probability: float = 0.3
    boundary_divisor: int = 2
    iterations: int = 30
    batch_size: int = 8
    learning_rate: float = 0.05
    clip_bound: float = 1.0
    penalty: float = 0.5
    diffusion_steps: int = 1
    phi: str = "clamp"
    grad_workers: int = 1
    grad_mode: str = "vectorized"
    checkpoint_every: int | None = None
    checkpoint_path: str | None = None
    resume: bool = False
    subgraph_store: str | None = None
    rng: int | np.random.Generator | None = field(default=None, repr=False)

    def resolved_sampling_rate(self, num_nodes: int) -> float:
        """``q`` — explicit value or the paper's ``256 / |V_train|``."""
        if self.sampling_rate is not None:
            return self.sampling_rate
        if num_nodes <= 0:
            raise TrainingError("graph has no nodes")
        return min(256.0 / num_nodes, 1.0)

    def resolved_delta(self, num_nodes: int) -> float:
        """δ — explicit value or ``1 / (2 |V_train|)``."""
        if self.delta is not None:
            return self.delta
        return 1.0 / (2.0 * max(num_nodes, 2))


@dataclass
class PipelineResult:
    """Everything :meth:`fit` produced, for inspection and experiments.

    Attributes:
        num_subgraphs: container size ``m``.
        max_occurrences: the sensitivity bound ``N_g`` used for noise.
        empirical_max_occurrence: the occurrence maximum ``fit`` audits
            before calibration (a pool over the bound raises
            :class:`~repro.errors.SamplingError`).
        sigma: calibrated noise multiplier (0 when non-private).
        epsilon: achieved ε (``inf`` when non-private).
        delta: the δ used.
        history: per-iteration training records.
        preprocessing_seconds: sampling (+ projection) wall time.
        training_seconds: total Algorithm 2 wall time.
        stage1_count / stage2_count: dual-stage split (0/0 for naive).
        sampling_stats: the sampling engine's counters (walks
            attempted / failed / cap-rejected, per-stage wall time).
        clip_bound: the per-subgraph clip norm the trainer actually used
            (``None`` in the non-private mode, which neither clips nor
            noises).
        model: the trained GNN, carried so the result is *publishable* on
            its own — previously the trained ``GNNConfig`` was not
            recoverable from saved weights plus a bare result, and
            publishing meant hand-reassembling weights, architecture, and
            accounting state from three objects.
        config: the frozen pipeline configuration the run used.
        method: pipeline name (``PrivIM*``, ``PrivIM``, …).
    """

    num_subgraphs: int
    max_occurrences: int
    empirical_max_occurrence: int
    sigma: float
    epsilon: float
    delta: float
    history: TrainingHistory
    preprocessing_seconds: float
    training_seconds: float
    stage1_count: int = 0
    stage2_count: int = 0
    sampling_stats: SamplingStats | None = None
    clip_bound: float | None = None
    model: object | None = field(default=None, repr=False)
    config: object | None = field(default=None, repr=False)
    method: str = ""

    # ------------------------------------------------------------------ #
    def _pipeline_config_json(self) -> dict:
        """JSON-safe snapshot of ``config`` (rng reduced to a seed/None)."""
        if self.config is None:
            return {}
        from dataclasses import asdict, is_dataclass

        if not is_dataclass(self.config):
            return {}
        snapshot = asdict(self.config)
        rng = snapshot.get("rng")
        if rng is not None and not isinstance(rng, int):
            snapshot["rng"] = None  # generator objects are not JSON-safe
        return snapshot

    def build_artifact(self, **metadata):
        """The :class:`~repro.serving.registry.ModelArtifact` of this run.

        ``metadata`` keys (dataset name, operator tags, …) are stored
        verbatim in the artifact header.
        """
        # Imported lazily: core must not depend on serving at import time.
        from repro.serving.registry import ModelArtifact, PrivacyProvenance

        if self.model is None:
            raise TrainingError(
                "this PipelineResult carries no trained model; only results "
                "returned by fit() on this repo version are publishable"
            )
        return ModelArtifact(
            model=self.model,
            privacy=PrivacyProvenance(
                epsilon=float(self.epsilon),
                delta=float(self.delta),
                sigma=float(self.sigma),
                steps=self.history.iterations,
                max_occurrences=int(self.max_occurrences),
                num_subgraphs=int(self.num_subgraphs),
                clip_bound=self.clip_bound,
            ),
            pipeline_config=self._pipeline_config_json(),
            method=self.method,
            metadata=dict(metadata),
        )

    def export_artifact(self, path, **metadata) -> str:
        """Write this run as a serving artifact; returns the path written.

        The artifact bundles the trained weights, the exact ``GNNConfig``,
        the frozen pipeline configuration, and the final privacy
        accounting (ε, δ, σ, steps) — everything
        :class:`repro.serving.engine.ScoringEngine` needs to serve the
        model without retraining-time context.
        """
        from repro.serving.registry import save_artifact

        return save_artifact(self.build_artifact(**metadata), path)


class _BasePipeline:
    """Shared fit / seed-selection logic of PrivIM and PrivIM*."""

    method_name = "base"

    def __init__(
        self,
        config: PrivIMConfig | None = None,
        *,
        obs: Observability | None = None,
    ) -> None:
        self.config = config or PrivIMConfig()
        self.model = None
        self.result: PipelineResult | None = None
        #: Observability bundle (spans, counters, run-record events, privacy
        #: ledger).  ``None`` resolves to the zero-overhead NULL_OBS.
        self.obs = ensure_obs(obs)
        #: The privacy-budget ledger of the last ``fit`` (``None`` until a
        #: private run with observability enabled completes).
        self.ledger: PrivacyLedger | None = None
        # Four streams are spawned though three are used: ``rng`` may be a
        # caller's shared Generator, which each spawned stream advances,
        # so spawning fewer would change every later draw the caller makes.
        self._sampling_rng, self._model_rng, self._training_rng, _ = spawn_rngs(
            ensure_rng(self.config.rng), 4
        )

    # subclasses implement ------------------------------------------------
    def _sample(
        self, graph: Graph, sink=None
    ) -> tuple[SubgraphContainer, int, int, int, SamplingStats]:
        """Return (container, bound N_g, stage1_count, stage2_count, stats).

        ``sink`` (when given) receives the emitted subgraphs in place of a
        fresh in-memory container — e.g. a
        :class:`~repro.sampling.store.SubgraphStoreWriter`.
        """
        raise NotImplementedError

    # ---------------------------------------------------------------------
    def fit(self, graph: Graph) -> PipelineResult:
        """Sample subgraphs, calibrate noise, and train the private GNN."""
        config = self.config
        obs = self.obs
        obs.event(
            "run_start",
            method=self.method_name,
            num_nodes=graph.num_nodes,
            epsilon=None if config.epsilon is None else float(config.epsilon),
            iterations=config.iterations,
            batch_size=config.batch_size,
            model=config.model,
        )
        # The sampler emits in start order, so the store receives exactly
        # the sequence an in-memory pool would.
        sink = store = None
        if config.subgraph_store:
            sink = SubgraphStoreWriter(
                config.subgraph_store,
                meta={"method": self.method_name, "num_nodes": graph.num_nodes},
            )
        try:
            with obs.span("pipeline.sampling") as sampling_span:
                container, max_occurrences, stage1, stage2, sampling_stats = (
                    self._sample(graph, sink)
                )
            preprocessing_seconds = sampling_span.seconds
            if sink is not None:
                # Seal the spilled pool and reopen it read-only: from here
                # on, training touches subgraphs only through mmap.
                with obs.span("pipeline.store_finalize") as span:
                    container = store = sink.finalize()
                preprocessing_seconds += span.seconds
                obs.event(
                    "subgraph_store",
                    path=store.path,
                    num_subgraphs=len(store),
                    seconds=span.seconds,
                )
            if len(container) == 0:
                raise TrainingError(
                    "sampling produced no subgraphs; increase sampling_rate or "
                    "walk_length, or decrease subgraph_size"
                )
            # The privacy proof needs every node in at most N_g subgraphs;
            # audit the sealed pool (node_map prefixes only, for a store)
            # before any noise is calibrated against that bound.
            empirical_max_occurrence = container.max_occurrence(graph.num_nodes)
            if empirical_max_occurrence > max_occurrences:
                if store is not None:
                    store.close()
                    shutil.rmtree(store.path, ignore_errors=True)
                raise SamplingError(
                    f"sampled pool violates the occurrence bound: a node occurs "
                    f"{empirical_max_occurrence} times, over N_g = {max_occurrences}"
                )
            batch_size = min(config.batch_size, len(container))
            delta = config.resolved_delta(graph.num_nodes)

            if config.epsilon is None:
                # Non-private reference (ε = ∞): no noise AND no clipping, per
                # the trainer's documented non-private mode — leaving the clip
                # on would bias the upper-reference rows of Table II / Fig. 5.
                sigma = 0.0
                achieved_epsilon = float("inf")
                clip_bound = None
            else:
                with obs.span("pipeline.calibration"):
                    sigma = calibrate_sigma(
                        config.epsilon,
                        delta,
                        steps=config.iterations,
                        batch_size=batch_size,
                        num_subgraphs=len(container),
                        max_occurrences=max_occurrences,
                    )
                achieved_epsilon = config.epsilon
                clip_bound = config.clip_bound
            obs.event(
                "calibration",
                sigma=sigma,
                delta=delta,
                clip_bound=clip_bound,
                num_subgraphs=len(container),
                max_occurrences=max_occurrences,
            )

            self.model = build_gnn(
                config.model,
                hidden_features=config.hidden_features,
                num_layers=config.num_layers,
                rng=self._model_rng,
            )
            training_config = DPTrainingConfig(
                iterations=config.iterations,
                batch_size=batch_size,
                learning_rate=config.learning_rate,
                clip_bound=clip_bound,
                sigma=sigma,
                max_occurrences=max_occurrences,
                loss=PenaltyLossConfig(
                    diffusion_steps=config.diffusion_steps,
                    penalty=config.penalty,
                    phi=config.phi,
                ),
                checkpoint_every=config.checkpoint_every,
                checkpoint_path=config.checkpoint_path,
                grad_workers=config.grad_workers,
                grad_mode=config.grad_mode,
            )
            trainer = DPGNNTrainer(
                self.model, container, training_config, self._training_rng, obs=obs
            )
            if trainer.accountant is not None and obs.enabled:
                self.ledger = PrivacyLedger(
                    delta, sink=obs.ledger_sink(), logger=obs.logger
                )
                trainer.accountant.attach_ledger(self.ledger)
            if config.resume:
                if not config.checkpoint_path:
                    raise TrainingError("resume=True requires a checkpoint_path")
                resume_path = normalize_checkpoint_path(config.checkpoint_path)
                if os.path.exists(resume_path):
                    trainer.load_checkpoint(resume_path)
            with obs.span("pipeline.training"):
                history = trainer.train()

            if trainer.accountant is not None:
                achieved_epsilon = trainer.accountant.epsilon(delta)
        finally:
            if store is not None:
                store.close()
            elif sink is not None:
                sink.abort()

        self.result = PipelineResult(
            num_subgraphs=len(container),
            max_occurrences=max_occurrences,
            empirical_max_occurrence=empirical_max_occurrence,
            sigma=sigma,
            epsilon=achieved_epsilon,
            delta=delta,
            history=history,
            preprocessing_seconds=preprocessing_seconds,
            training_seconds=history.total_seconds,
            stage1_count=stage1,
            stage2_count=stage2,
            sampling_stats=sampling_stats,
            clip_bound=clip_bound,
            model=self.model,
            config=config,
            method=self.method_name,
        )
        if obs.enabled:
            obs.event(
                "run_end",
                method=self.method_name,
                epsilon=achieved_epsilon,
                delta=delta,
                sigma=sigma,
                num_subgraphs=len(container),
                max_occurrences=max_occurrences,
                stage1_count=stage1,
                stage2_count=stage2,
                preprocessing_seconds=preprocessing_seconds,
                training_seconds=history.total_seconds,
            )
            obs.event("metrics", **obs.metrics.snapshot())
        return self.result

    def select_seeds(
        self,
        graph: Graph,
        k: int,
        *,
        rng: int | np.random.Generator | None = None,
        features: np.ndarray | None = None,
    ) -> list[int]:
        """Top-``k`` seed set on ``graph`` using the trained model.

        ``rng`` seeds the score tie-break only (see
        :func:`repro.core.seed_selection.select_top_k_seeds`);
        ``features`` replaces the degree features ``graph`` stores.
        """
        if self.model is None:
            raise TrainingError("call fit() before select_seeds()")
        return select_top_k_seeds(self.model, graph, k, rng=rng, features=features)

    def score_nodes(
        self, graph: Graph, *, features: np.ndarray | None = None
    ) -> np.ndarray:
        """Per-node seed probabilities on ``graph``."""
        if self.model is None:
            raise TrainingError("call fit() before score_nodes()")
        return score_nodes(self.model, graph, features=features)


class PrivIM(_BasePipeline):
    """The naive pipeline: θ-projection + Algorithm 1 + Lemma 1 bound."""

    method_name = "PrivIM"

    def _sample(
        self, graph: Graph, sink=None
    ) -> tuple[SubgraphContainer, int, int, int, SamplingStats]:
        config = self.config
        sampling = NaiveSamplingConfig(
            theta=config.theta,
            subgraph_size=config.subgraph_size,
            hops=config.num_layers,
            sampling_rate=config.resolved_sampling_rate(graph.num_nodes),
            walk_length=config.walk_length,
            restart_probability=config.restart_probability,
        )
        run = sample_naive(graph, sampling, self._sampling_rng, obs=self.obs, sink=sink)
        bound = max_occurrences_naive(config.theta, config.num_layers)
        return run.container, bound, len(run.container), 0, run.stats


class PrivIMStar(_BasePipeline):
    """The dual-stage pipeline (Algorithm 3) with bound ``N_g* = M``.

    Args:
        config: shared pipeline configuration.
        include_boundary: run BES (stage 2); ``False`` gives the
            "PrivIM+SCS" ablation variant.
    """

    method_name = "PrivIM*"

    def __init__(
        self,
        config: PrivIMConfig | None = None,
        *,
        include_boundary: bool = True,
        obs: Observability | None = None,
    ) -> None:
        super().__init__(config, obs=obs)
        self.include_boundary = bool(include_boundary)
        if not self.include_boundary:
            self.method_name = "PrivIM+SCS"

    def _sample(
        self, graph: Graph, sink=None
    ) -> tuple[SubgraphContainer, int, int, int, SamplingStats]:
        config = self.config
        sampling = DualStageSamplingConfig(
            subgraph_size=config.subgraph_size,
            threshold=config.threshold,
            decay=config.decay,
            sampling_rate=config.resolved_sampling_rate(graph.num_nodes),
            walk_length=config.walk_length,
            restart_probability=config.restart_probability,
            boundary_divisor=config.boundary_divisor,
            include_boundary=self.include_boundary,
        )
        run = sample_dual_stage(
            graph, sampling, self._sampling_rng, obs=self.obs, sink=sink
        )
        bound = max_occurrences_dual_stage(config.threshold)
        return run.container, bound, run.stage1_count, run.stage2_count, run.stats


def non_private_config(config: PrivIMConfig) -> PrivIMConfig:
    """Copy of ``config`` with the privacy budget removed (ε = ∞).

    At fit time the non-private path trains with ``sigma = 0`` **and**
    ``clip_bound = None`` — the trainer's documented non-private mode.
    """
    return replace(config, epsilon=None)
