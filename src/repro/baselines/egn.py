"""EGN — Erdős Goes Neural (Karalias & Loukas, NeurIPS 2020) with DP-SGD.

EGN is the foundational unsupervised probabilistic-penalty framework for
combinatorial optimisation; the paper privatises it by applying DP-SGD to
its training.  Crucially (Section V-B), EGN samples training subgraphs
*uniformly at random with no occurrence control*, so a single node can in
the worst case appear in every subgraph — the node-level sensitivity must
assume ``N_g = m`` and the calibrated noise is the largest of all methods,
which is why EGN trails everywhere in Figure 5.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.loss import PenaltyLossConfig
from repro.core.pipeline import PipelineResult
from repro.core.seed_selection import score_nodes, select_top_k_seeds
from repro.core.trainer import DPGNNTrainer, DPTrainingConfig
from repro.dp.accountant import calibrate_sigma
from repro.errors import TrainingError
from repro.gnn.models import build_gnn
from repro.graphs.graph import Graph
from repro.obs import Observability, PrivacyLedger, ensure_obs
from repro.sampling.random_sets import sample_random_sets
from repro.utils.rng import ensure_rng, spawn_rngs


@dataclass
class EGNConfig:
    """EGN hyperparameters (GCN backbone per Section V-A).

    Attributes:
        epsilon: target ε (``None`` = non-private).
        delta: target δ (default ``1/(2|V|)``).
        model: backbone (paper uses a 3-layer GCN, 32 hidden units).
        num_subgraphs: how many uniform subgraphs to draw.
        subgraph_size: nodes per subgraph.
        iterations / batch_size / learning_rate / clip_bound / penalty:
            DP-SGD settings shared with Algorithm 2.
        grad_workers: gradient fan-out processes (1 = serial, 0 = one per
            CPU); bit-identical results for any value.
        grad_mode: gradient execution strategy (``"vectorized"`` or
            ``"loop"``); byte-identical results either way.
        rng: master seed.
    """

    epsilon: float | None = 4.0
    delta: float | None = None
    model: str = "gcn"
    hidden_features: int = 32
    num_layers: int = 3
    num_subgraphs: int = 60
    subgraph_size: int = 40
    iterations: int = 30
    batch_size: int = 8
    learning_rate: float = 0.05
    clip_bound: float = 1.0
    penalty: float = 0.5
    grad_workers: int = 1
    grad_mode: str = "vectorized"
    rng: int | np.random.Generator | None = field(default=None, repr=False)


class EGNPipeline:
    """EGN with DP-SGD, exposing the same fit/select interface as PrivIM."""

    method_name = "EGN"

    def __init__(
        self,
        config: EGNConfig | None = None,
        *,
        obs: Observability | None = None,
    ) -> None:
        self.config = config or EGNConfig()
        self.obs = ensure_obs(obs)
        self.model = None
        self.result: PipelineResult | None = None
        self.ledger: PrivacyLedger | None = None
        (
            self._sampling_rng,
            self._model_rng,
            self._training_rng,
        ) = spawn_rngs(ensure_rng(self.config.rng), 3)

    def fit(self, graph: Graph) -> PipelineResult:
        """Sample uniform subgraphs and train the DP GCN."""
        config = self.config
        obs = self.obs
        obs.event(
            "run_start",
            method=self.method_name,
            num_nodes=graph.num_nodes,
            epsilon=None if config.epsilon is None else float(config.epsilon),
            iterations=config.iterations,
        )
        with obs.span("pipeline.sampling") as span:
            subgraph_size = min(config.subgraph_size, graph.num_nodes)
            container = sample_random_sets(
                graph, subgraph_size, config.num_subgraphs, self._sampling_rng
            )
        preprocessing_seconds = span.seconds
        if len(container) == 0:
            raise TrainingError("num_subgraphs must be positive for EGN")

        # No occurrence control: the worst case is every subgraph.
        max_occurrences = len(container)
        batch_size = min(config.batch_size, len(container))
        delta = (
            config.delta
            if config.delta is not None
            else 1.0 / (2.0 * max(graph.num_nodes, 2))
        )

        if config.epsilon is None:
            sigma = 0.0
            epsilon = float("inf")
        else:
            sigma = calibrate_sigma(
                config.epsilon,
                delta,
                steps=config.iterations,
                batch_size=batch_size,
                num_subgraphs=len(container),
                max_occurrences=max_occurrences,
            )
            epsilon = config.epsilon

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
            clip_bound=config.clip_bound,
            sigma=sigma,
            max_occurrences=max_occurrences,
            loss=PenaltyLossConfig(penalty=config.penalty),
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
        with obs.span("pipeline.training"):
            history = trainer.train()
        if trainer.accountant is not None:
            epsilon = trainer.accountant.epsilon(delta)

        obs.event(
            "run_end",
            method=self.method_name,
            epsilon=epsilon,
            delta=delta,
            sigma=sigma,
            num_subgraphs=len(container),
            preprocessing_seconds=preprocessing_seconds,
            training_seconds=history.total_seconds,
        )
        self.result = PipelineResult(
            num_subgraphs=len(container),
            max_occurrences=max_occurrences,
            empirical_max_occurrence=container.max_occurrence(graph.num_nodes),
            sigma=sigma,
            epsilon=epsilon,
            delta=delta,
            history=history,
            preprocessing_seconds=preprocessing_seconds,
            training_seconds=history.total_seconds,
            clip_bound=None if config.epsilon is None else config.clip_bound,
            model=self.model,
            config=config,
            method=self.method_name,
        )
        return self.result

    def select_seeds(
        self, graph: Graph, k: int, *, features: np.ndarray | None = None
    ) -> list[int]:
        """Top-``k`` seed set by model score."""
        if self.model is None:
            raise TrainingError("call fit() before select_seeds()")
        return select_top_k_seeds(self.model, graph, k, features=features)

    def score_nodes(
        self, graph: Graph, *, features: np.ndarray | None = None
    ) -> np.ndarray:
        """Per-node seed probabilities."""
        if self.model is None:
            raise TrainingError("call fit() before score_nodes()")
        return score_nodes(self.model, graph, features=features)
