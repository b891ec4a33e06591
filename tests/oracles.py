"""Differential-testing oracles for the training stack and the samplers.

The repo's correctness story for every execution knob (``grad_mode``,
``grad_workers``, the fused scatter kernels, checkpoint/resume, and an
in-memory pool versus the on-disk subgraph store) is the same
sentence: *the final weights, the per-iteration losses, and the accounted
ε are byte-equal to the serial reference*.  This module turns that
sentence into reusable helpers so each test states only the pair of
configurations it compares:

* :func:`train_outcome` — run Algorithm 2 under an arbitrary
  :class:`DPTrainingConfig` knob set and capture the byte-level outcome;
* :func:`resumed_outcome` — run the first ``split_at`` iterations under
  one configuration, checkpoint, and finish under another;
* :func:`assert_outcomes_identical` — compare two outcomes with a useful
  error message (which component diverged first).

The serial per-subgraph loop (``grad_mode="loop"``, ``grad_workers=1``)
is the permanent oracle; every other configuration is differential-tested
against it.

The fused segment kernels have a scatter oracle,
:func:`reference_segment_sum` / :func:`reference_segment_max`: the
``np.add.at`` / ``np.maximum.at`` loops the kernels must match byte for
byte.  The ``add_at_kernels`` fixture (``tests/conftest.py``) swaps them
in for :mod:`repro.nn.kernels` so a whole training run can be replayed on
the reference scatters.

GNN scoring has an autograd oracle, :func:`reference_score_nodes`: the
model's ``forward`` under ``no_grad``.  The inference path
(:meth:`repro.gnn.models.GNN.infer`, which ``score_nodes`` runs) must
match it byte for byte.

The two fused training nodes have composed autograd oracles.
:func:`reference_attention_forward` builds a GAT/GRAT layer from
single-purpose autograd nodes (per head a column slice, the per-node
scores, the edge logits, softmax, gather and scatter); the layer's
one-node ``forward`` must match its output and every gradient — input,
weight, attention vectors, and each per-example capture row — byte for
byte.  :func:`reference_pair_attention_forward` keeps the former pair
form (an ``(E, 2W)`` matrix of ``[x_src ∥ x_tgt]`` rows times ``a``) as a
tolerance oracle for the same quantities.
:func:`reference_member_losses` reduces each member's Eq. 5 loss from
contiguous row slices, one scatter-back node per slice;
:func:`repro.core.loss.member_losses` must match it the same way.

The Theorem 3 accountant has a per-order oracle:
:func:`reference_privim_step_rdp` rebuilds ρ and one logsumexp for each
Rényi order, and :func:`reference_best_epsilon` converts and compares one
order at a time.  On top of them, :func:`reference_epsilon`,
:func:`reference_ledger_events` and :func:`reference_calibrate_sigma`
replay an accountant's ε, its ledger's event stream and the σ bisection.
The vectorized γ curve and ε conversion in :mod:`repro.dp` must match
them byte for byte.

The samplers have their own serial oracle, :func:`serial_naive` and
:func:`serial_dual_stage`: Algorithms 1 and 3 written directly over a
:class:`Graph` — the per-node θ-projection loop
:func:`reference_project_in_degree`, ``k_hop_nodes``, the scalar RWR
:func:`random_walk_nodes` with the uniform or Eq. 9 chooser, chunked cap
validation against a :class:`FrequencyVector`, and ``Graph.subgraph``
induction.  The sampling engine (the shard coordinator, flat or sharded)
must reproduce it bit for bit, and the vectorized ``project_in_degree``
must match the projection loop byte for byte.

Graph generation and partitioning keep their scalar loops:
:func:`reference_powerlaw_cluster_graph` (the Holme–Kim generator with
per-draw ``Generator`` calls, which the exact draw stream in
:mod:`repro.utils.rng` must match edge for edge and draw for draw) and
:func:`reference_bfs_partition` (BFS growth neighbour by neighbour).
"""

from __future__ import annotations

import dataclasses

from collections import deque
from types import SimpleNamespace
from typing import Callable

import numpy as np
from scipy.special import gammaln, logsumexp

from repro.core.trainer import DPGNNTrainer, DPTrainingConfig
from repro.dp.accountant import _log_binomial_pmf
from repro.dp.rdp import DEFAULT_ALPHAS, rdp_to_dp
from repro.errors import CalibrationError, GraphError, PrivacyError, SamplingError
from repro.gnn.features import degree_features
from repro.gnn.models import build_gnn
from repro.graphs.graph import Graph
from repro.graphs.neighborhoods import k_hop_nodes
from repro.gnn.message_passing import check_edge_index, unit_edge_weights
from repro.nn import functional as F
from repro.nn import kernels
from repro.nn.per_example import active_capture, capture_matmul
from repro.nn.tensor import Tensor, concat, no_grad
from repro.sampling import FrequencyVector, Subgraph, SubgraphContainer
from repro.sampling.frequency import adaptive_neighbor_weights
from repro.sampling.parallel import SamplingStats
from repro.utils.rng import child_generator, derive_root_entropy, ensure_rng

__all__ = [
    "TrainOutcome",
    "make_model",
    "outcome_of",
    "train_outcome",
    "resumed_outcome",
    "assert_outcomes_identical",
    "reference_segment_sum",
    "reference_segment_max",
    "reference_score_nodes",
    "reference_attention_forward",
    "reference_pair_attention_forward",
    "reference_member_losses",
    "reference_privim_step_rdp",
    "reference_best_epsilon",
    "reference_epsilon",
    "reference_ledger_events",
    "reference_calibrate_sigma",
    "reference_project_in_degree",
    "reference_powerlaw_cluster_graph",
    "reference_bfs_partition",
    "walk_neighbors",
    "uniform_chooser",
    "random_walk_nodes",
    "adaptive_neighbor_probabilities",
    "make_frequency_chooser",
    "frequency_walk",
    "SerialSample",
    "serial_naive",
    "serial_dual_stage",
]


@dataclasses.dataclass(frozen=True)
class TrainOutcome:
    """Byte-level result of a training run: the bit-identity contract."""

    weights: bytes
    losses: tuple
    epsilon: float | None


def make_model(kind: str = "gcn", *, hidden_features: int = 8, num_layers: int = 2,
               rng: int = 0, **kwargs):
    """A small deterministic model (identical weights for identical args)."""
    return build_gnn(
        kind, hidden_features=hidden_features, num_layers=num_layers, rng=rng,
        **kwargs,
    )


def outcome_of(trainer: DPGNNTrainer) -> TrainOutcome:
    """Capture a finished trainer's byte-level outcome."""
    weights = np.concatenate(
        [parameter.data.reshape(-1) for parameter in trainer.model.parameters()]
    )
    epsilon = trainer.spent_epsilon(1e-4) if trainer.accountant else None
    return TrainOutcome(
        weights=weights.tobytes(),
        losses=tuple(trainer.history.losses),
        epsilon=epsilon,
    )


def _config(**overrides) -> DPTrainingConfig:
    settings = dict(
        iterations=4, batch_size=4, sigma=1.0, clip_bound=1.0,
        max_occurrences=4, grad_workers=1, grad_mode="loop",
    )
    settings.update(overrides)
    return DPTrainingConfig(**settings)


def train_outcome(container, *, model: str = "gcn", rng: int = 7,
                  **config_overrides) -> TrainOutcome:
    """Train from scratch under the given knob overrides; capture the outcome.

    Every call builds an identically-initialised model, so two calls that
    differ only in execution knobs (``grad_mode``, ``grad_workers``,
    kernels) must produce identical :class:`TrainOutcome` values.
    """
    trainer = DPGNNTrainer(
        make_model(model), container, _config(**config_overrides), rng=rng
    )
    try:
        trainer.train()
        return outcome_of(trainer)
    finally:
        trainer.close()


def resumed_outcome(container, *, split_at: int, checkpoint_path: str,
                    model: str = "gcn", rng: int = 7, resume_rng: int = 991,
                    first: dict | None = None, second: dict | None = None,
                    **shared_overrides) -> TrainOutcome:
    """Train to ``split_at`` under ``first``, resume to the end under ``second``.

    The resuming trainer is seeded differently (``resume_rng``) on purpose:
    matching the uninterrupted run proves the checkpoint's restored RNG
    streams — not the constructor seed — drive the continuation.
    """
    iterations = shared_overrides.pop("iterations", 6)
    first_config = _config(
        iterations=split_at, checkpoint_every=split_at,
        checkpoint_path=checkpoint_path, **{**shared_overrides, **(first or {})},
    )
    partial = DPGNNTrainer(make_model(model), container, first_config, rng=rng)
    try:
        partial.train()
    finally:
        partial.close()

    second_config = _config(
        iterations=iterations, checkpoint_every=split_at,
        checkpoint_path=checkpoint_path, **{**shared_overrides, **(second or {})},
    )
    resumed = DPGNNTrainer(
        make_model(model), container, second_config, rng=resume_rng
    )
    try:
        resumed.load_checkpoint(checkpoint_path)
        resumed.train()
        return outcome_of(resumed)
    finally:
        resumed.close()


def assert_outcomes_identical(candidate: TrainOutcome, oracle: TrainOutcome,
                              *, label: str = "candidate") -> None:
    """Byte-compare two outcomes, naming the first diverging component."""
    assert candidate.losses == oracle.losses, (
        f"{label}: per-iteration losses diverged from the oracle "
        f"({candidate.losses} vs {oracle.losses})"
    )
    assert candidate.epsilon == oracle.epsilon, (
        f"{label}: accounted epsilon diverged from the oracle "
        f"({candidate.epsilon} vs {oracle.epsilon})"
    )
    assert candidate.weights == oracle.weights, (
        f"{label}: final weights are not byte-equal to the oracle"
    )


# --------------------------------------------------------------------------- #
# scatter oracle for the fused segment kernels
# --------------------------------------------------------------------------- #
def reference_segment_sum(values, segments, num_segments, *, matrix=None):
    """``np.add.at`` reference for :func:`repro.nn.kernels.segment_sum`.

    ``matrix`` is accepted (so this can stand in for the kernel) and
    ignored: the reference always scatters by ``segments``.

    NaN payloads are out of the reference's scope.  When NaNs of different
    bits meet in one segment (a quiet ``np.nan`` and the ``inf - inf``
    NaN, say), which one survives an add is the compiled loop's operand
    order: ``np.add.at`` keeps one, ``np.bincount`` and scipy's CSR loops
    may keep the other.  A segment holding a NaN is NaN on every path, and
    every other entry is byte-equal, so tests that feed several NaN kinds
    compare NaN-ness there and bytes elsewhere.
    """
    del matrix
    values = np.asarray(values, dtype=np.float64)
    out = np.zeros((int(num_segments),) + values.shape[1:], dtype=np.float64)
    np.add.at(out, np.asarray(segments, dtype=np.int64), values)
    return out


def reference_segment_max(values, segments, num_segments, *, fill=-np.inf,
                          sort=None):
    """``np.maximum.at`` reference for :func:`repro.nn.kernels.segment_max`.

    ``sort`` is accepted and ignored, like ``matrix`` above.
    """
    del sort
    values = np.asarray(values, dtype=np.float64)
    out = np.full((int(num_segments),) + values.shape[1:], fill, dtype=np.float64)
    np.maximum.at(out, np.asarray(segments, dtype=np.int64), values)
    return out


# --------------------------------------------------------------------------- #
# autograd oracle for the inference forward
# --------------------------------------------------------------------------- #
def reference_score_nodes(model, graph, *, features=None) -> np.ndarray:
    """Per-node scores from the model's autograd ``forward`` under ``no_grad``.

    The scoring path ``score_nodes`` replaced with ``GNN.infer``; its
    output must stay byte-equal to this.
    """
    if features is None:
        features = degree_features(graph, dim=model.config.in_features)
    edge_index = graph.edge_index()
    edge_weight = graph.edge_arrays()[2]
    with no_grad():
        x = Tensor(np.asarray(features, dtype=np.float64))
        scores = model(x, edge_index, edge_weight)
    return scores.numpy()


# --------------------------------------------------------------------------- #
# composed autograd oracles for the fused attention and loss nodes
# --------------------------------------------------------------------------- #
def _column_slice(tensor: Tensor, start: int, stop: int) -> Tensor:
    """A contiguous copy of ``tensor[:, start:stop]``; the backward embeds
    the slice gradient in zeros."""

    def backward(grad: np.ndarray) -> None:
        if tensor.requires_grad:
            full = np.zeros_like(tensor.data)
            full[:, start:stop] = grad
            tensor._accumulate_owned(full)

    out = np.ascontiguousarray(tensor.data[:, start:stop])
    return tensor._make(out, (tensor,), backward)


def _node_scores(features: Tensor, attention: Tensor) -> Tensor:
    """``features @ [a_s a_t]``, the ``(N, 2)`` per-node attention scores,
    with per-example capture of the product and of the attention gradient
    (``Sᵀ x`` in the vector's ``[a_s; a_t]`` layout)."""
    head_dim = features.data.shape[1]
    matrix = attention.data.reshape(2, head_dim).T
    out = capture_matmul(features.data, matrix)

    def backward(grad: np.ndarray) -> None:
        if attention.requires_grad:
            capture = active_capture()
            if capture is not None:
                capture.matmul_nodes(attention, grad, features.data)
            else:
                attention._accumulate_owned((grad.T @ features.data).reshape(-1, 1))
        if features.requires_grad:
            features._accumulate_owned(capture_matmul(grad, matrix.T))

    return features._make(out, (features, attention), backward)


def _edge_logits(scores: Tensor, sources, targets, slope: float) -> Tensor:
    """``leaky_relu(scores[sources, 0] + scores[targets, 1])``: an edge's
    logit from its ends' node scores; the backward sums each logit's
    gradient onto its source's first column and its target's second."""
    num_nodes = scores.data.shape[0]
    out, scale = kernels.leaky_relu(scores.data[sources, 0] + scores.data[targets, 1], slope)

    def backward(grad: np.ndarray) -> None:
        g_scores = grad * scale
        full = np.empty((num_nodes, 2))
        full[:, 0] = kernels.segment_sum(g_scores, sources, num_nodes)
        full[:, 1] = kernels.segment_sum(g_scores, targets, num_nodes)
        scores._accumulate_owned(full)

    return scores._make(out, (scores,), backward)


def _scatter_weighted_rows(
    values: Tensor, weights: Tensor, indices: np.ndarray, num_rows: int
) -> Tensor:
    """``scatter_add_rows(values * weights.reshape(-1, 1), indices)``."""
    column = weights.data.reshape(-1, 1)
    out = kernels.segment_sum(values.data * column, indices, num_rows)

    def backward(grad: np.ndarray) -> None:
        g_messages = grad[indices]
        if values.requires_grad:
            values._accumulate_owned(g_messages * column)
        if weights.requires_grad:
            g_weights = (g_messages * values.data).sum(axis=1, keepdims=True)
            weights._accumulate_owned(g_weights.reshape(-1))

    return values._make(out, (values, weights), backward)


def _attention_setup(layer, x: Tensor, edge_index, edge_weight):
    """Validated edges, the softmax segments and the non-unit weight column."""
    edges = check_edge_index(edge_index, x.shape[0])
    segments = edges[1] if layer.normalize_over == "target" else edges[0]
    weight_column = None
    if edge_weight is not None:
        weights = np.asarray(edge_weight, dtype=np.float64)
        if not unit_edge_weights(weights):
            weight_column = Tensor(weights.reshape(-1, 1))
    return edges, segments, weight_column


def reference_attention_forward(layer, x: Tensor, edge_index, edge_weight=None) -> Tensor:
    """A GAT/GRAT layer's forward composed from single-purpose autograd nodes.

    Per head: a column slice of the transformed features (several heads
    only), the per-node scores, the edge logits from them, the softmax, a
    gather of the source rows, and a fused weighted scatter (one head,
    unit weights) or multiply(s) and scatter; then a concat of the heads.
    Zero edges: ``linear(x) * 0.0``.
    """
    num_nodes = x.shape[0]
    edges, segments, weight_column = _attention_setup(layer, x, edge_index, edge_weight)
    if edges.shape[1] == 0:
        return layer.linear(x) * 0.0
    sources, targets = edges[0], edges[1]
    transformed = layer.linear(x)
    head_dim = layer.head_dim
    head_outputs = []
    for head, attention in enumerate(layer.attentions):
        features = transformed
        if layer.heads > 1:
            features = _column_slice(transformed, head * head_dim, (head + 1) * head_dim)
        scores = _node_scores(features, attention)
        logits = _edge_logits(scores, sources, targets, layer.negative_slope)
        alpha = F.segment_softmax(logits, segments, num_nodes)
        head_sources = features.gather_rows(sources)
        if layer.heads == 1 and weight_column is None:
            return _scatter_weighted_rows(head_sources, alpha, targets, num_nodes)
        messages = head_sources * alpha.reshape(-1, 1)
        if weight_column is not None:
            messages = messages * weight_column
        head_outputs.append(F.scatter_add_rows(messages, targets, num_nodes))
    return head_outputs[0] if layer.heads == 1 else concat(head_outputs, axis=1)


def reference_pair_attention_forward(layer, x: Tensor, edge_index, edge_weight=None) -> Tensor:
    """The layer's former pair form: every logit is ``[x_src ∥ x_tgt] · a``
    over an ``(E, 2·head_dim)`` pair matrix.

    The same function as the node form, evaluated another way: BLAS sums
    the pair row's 2·head_dim products in one dot, where the node form
    makes two dots and one add.  So it is a tolerance oracle (relative
    1e-9), not a byte oracle.  It runs without a per-example capture; the
    tests take per-example gradients from it one member at a time.
    """
    num_nodes = x.shape[0]
    edges, segments, weight_column = _attention_setup(layer, x, edge_index, edge_weight)
    if edges.shape[1] == 0:
        return layer.linear(x) * 0.0
    sources, targets = edges[0], edges[1]
    transformed = layer.linear(x)
    head_dim = layer.head_dim
    head_outputs = []
    for head, attention in enumerate(layer.attentions):
        features = transformed
        if layer.heads > 1:
            features = _column_slice(transformed, head * head_dim, (head + 1) * head_dim)
        head_sources = features.gather_rows(sources)
        pair = concat([head_sources, features.gather_rows(targets)], axis=1)
        logits = (pair @ attention).leaky_relu(layer.negative_slope).reshape(-1)
        alpha = F.segment_softmax(logits, segments, num_nodes)
        messages = head_sources * alpha.reshape(-1, 1)
        if weight_column is not None:
            messages = messages * weight_column
        head_outputs.append(F.scatter_add_rows(messages, targets, num_nodes))
    return head_outputs[0] if layer.heads == 1 else concat(head_outputs, axis=1)


def _row_slice(tensor: Tensor, start: int, stop: int) -> Tensor:
    """``tensor[start:stop]``; the backward embeds the slice gradient in zeros."""

    def backward(grad: np.ndarray) -> None:
        if tensor.requires_grad:
            full = np.zeros_like(tensor.data)
            full[start:stop] = grad
            tensor._accumulate_owned(full)

    return tensor._make(tensor.data[start:stop], (tensor,), backward)


def reference_member_losses(survival: Tensor, seed_probabilities: Tensor, bounds,
                            config) -> list[Tensor]:
    """Each member's Eq. 5 loss from row slices, one scalar node chain apiece."""
    losses = []
    for example in range(len(bounds) - 1):
        start, stop = int(bounds[example]), int(bounds[example + 1])
        uncovered = _row_slice(survival, start, stop).sum()
        seed_mass = _row_slice(seed_probabilities, start, stop).sum()
        loss = uncovered + config.penalty * seed_mass
        if config.normalize:
            loss = loss * (1.0 / (stop - start))
        losses.append(loss)
    return losses


# --------------------------------------------------------------------------- #
# per-order Theorem 3 accountant
# --------------------------------------------------------------------------- #
def reference_privim_step_rdp(alpha, sigma, batch_size, num_subgraphs,
                              max_occurrences) -> float:
    """One-iteration γ at one order, rebuilding ρ for that order alone."""
    if alpha <= 1:
        raise PrivacyError(f"alpha must be > 1, got {alpha}")
    if sigma <= 0:
        raise PrivacyError(f"sigma must be positive, got {sigma}")
    if batch_size < 1 or num_subgraphs < 1:
        raise PrivacyError("batch_size and num_subgraphs must be >= 1")
    if max_occurrences < 1:
        raise PrivacyError(f"max_occurrences must be >= 1, got {max_occurrences}")
    if batch_size > num_subgraphs:
        raise PrivacyError("batch_size cannot exceed the container size")

    touch_probability = min(max_occurrences / num_subgraphs, 1.0)
    top = min(max_occurrences, batch_size)

    if touch_probability >= 1.0:
        return alpha * top**2 / (2.0 * max_occurrences**2 * sigma**2)

    log_rho = _log_binomial_pmf(top, batch_size, touch_probability)
    if top < batch_size:
        i_tail = np.arange(top + 1, batch_size + 1)
        log_tail = (
            gammaln(batch_size + 1)
            - gammaln(i_tail + 1)
            - gammaln(batch_size - i_tail + 1)
            + i_tail * np.log(touch_probability)
            + (batch_size - i_tail) * np.log1p(-touch_probability)
        )
        log_rho[top] = np.logaddexp(log_rho[top], logsumexp(log_tail))

    i = np.arange(top + 1)
    exponents = alpha * (alpha - 1.0) * i**2 / (2.0 * max_occurrences**2 * sigma**2)
    log_terms = log_rho + exponents
    return float(logsumexp(log_terms) / (alpha - 1.0))


def reference_best_epsilon(rdp_curve, delta, alphas=DEFAULT_ALPHAS):
    """Scalar grid search: skip non-finite γ, keep the first minimum."""
    best = (np.inf, alphas[0])
    for alpha in alphas:
        gamma = rdp_curve(alpha)
        if not np.isfinite(gamma):
            continue
        epsilon = rdp_to_dp(alpha, gamma, delta)
        if epsilon < best[0]:
            best = (float(epsilon), float(alpha))
    if not np.isfinite(best[0]):
        raise PrivacyError("could not find a finite epsilon on the alpha grid")
    return best


def _reference_step_gammas(sigma, batch_size, num_subgraphs, max_occurrences,
                           alphas) -> dict:
    return {
        alpha: reference_privim_step_rdp(
            alpha, sigma, batch_size, num_subgraphs, max_occurrences
        )
        for alpha in alphas
    }


def reference_epsilon(sigma, batch_size, num_subgraphs, max_occurrences, steps,
                      delta, alphas=DEFAULT_ALPHAS) -> float:
    """``PrivacyAccountant(...).epsilon(delta)`` after ``steps`` steps."""
    if steps == 0:
        return 0.0
    gammas = _reference_step_gammas(
        sigma, batch_size, num_subgraphs, max_occurrences, alphas
    )
    epsilon, _ = reference_best_epsilon(
        lambda alpha: gammas[alpha] * steps, delta, alphas
    )
    return max(epsilon, 0.0)


def reference_ledger_events(sigma, batch_size, num_subgraphs, max_occurrences,
                            steps, delta, alphas=DEFAULT_ALPHAS) -> list[dict]:
    """The :class:`PrivacyLedger` events of ``steps`` composition steps."""
    gammas = _reference_step_gammas(
        sigma, batch_size, num_subgraphs, max_occurrences, alphas
    )
    events = []
    for step in range(1, steps + 1):
        epsilon, alpha = reference_best_epsilon(
            lambda order: gammas[order] * step, delta, alphas
        )
        events.append({
            "type": "ledger",
            "step": step,
            "epsilon": float(max(epsilon, 0.0)),
            "delta": float(delta),
            "best_alpha": float(alpha),
            "gamma": float(gammas[alpha] * step),
        })
    return events


def reference_calibrate_sigma(target_epsilon, delta, steps, batch_size,
                              num_subgraphs, max_occurrences, *,
                              sigma_low=1e-2, sigma_high=1e4,
                              tolerance=1e-3) -> float:
    """The σ bisection of :func:`repro.dp.accountant.calibrate_sigma`."""

    def epsilon_for(sigma):
        return reference_epsilon(
            sigma, batch_size, num_subgraphs, max_occurrences, steps, delta
        )

    low, high = sigma_low, sigma_high
    if epsilon_for(high) > target_epsilon:
        raise CalibrationError(f"even sigma={high} gives epsilon > {target_epsilon}")
    if epsilon_for(low) <= target_epsilon:
        return low
    while high / low > 1.0 + tolerance:
        middle = np.sqrt(low * high)
        if epsilon_for(middle) > target_epsilon:
            low = middle
        else:
            high = middle
    return float(high)


# --------------------------------------------------------------------------- #
# θ-projection
# --------------------------------------------------------------------------- #
def reference_project_in_degree(graph: Graph, theta: int, rng) -> Graph:
    """Algorithm 1's θ-projection as a per-node loop: each node over θ
    keeps ``generator.choice(in_degree, theta, replace=False)`` of its in
    row, in node order, and the graph is rebuilt from the kept edge list
    (target ascending, kept arcs in draw order)."""
    generator = ensure_rng(rng)
    kept_sources: list[np.ndarray] = []
    kept_targets: list[np.ndarray] = []
    kept_weights: list[np.ndarray] = []
    for node in range(graph.num_nodes):
        sources = graph.in_neighbors(node)
        weights = graph.in_weights(node)
        if len(sources) > theta:
            keep = generator.choice(len(sources), size=theta, replace=False)
            sources = sources[keep]
            weights = weights[keep]
        kept_sources.append(np.asarray(sources, dtype=np.int64))
        kept_targets.append(np.full(len(sources), node, dtype=np.int64))
        kept_weights.append(np.asarray(weights, dtype=np.float64))
    if kept_sources:
        all_sources = np.concatenate(kept_sources)
        all_targets = np.concatenate(kept_targets)
        all_weights = np.concatenate(kept_weights)
    else:  # no nodes
        all_sources = np.empty(0, dtype=np.int64)
        all_targets = np.empty(0, dtype=np.int64)
        all_weights = np.empty(0, dtype=np.float64)
    edges = np.stack([all_sources, all_targets], axis=1)
    projected = Graph(graph.num_nodes, edges, all_weights, directed=True)
    projected.is_directed = graph.is_directed
    return projected


# --------------------------------------------------------------------------- #
# graph generation and partitioning
# --------------------------------------------------------------------------- #
def reference_powerlaw_cluster_graph(
    num_nodes: int,
    attachment: int,
    triangle_probability: float,
    *,
    rng: int | np.random.Generator | None = None,
) -> Graph:
    """The Holme–Kim loop with scalar ``Generator`` draws and list
    filters: :func:`repro.graphs.generators.powerlaw_cluster_graph` must
    match its edges and leave the generator in the same state."""
    if not 1 <= attachment < max(num_nodes, 1):
        raise GraphError(f"attachment must be in [1, num_nodes), got {attachment}")
    if not 0.0 <= triangle_probability <= 1.0:
        raise GraphError("triangle_probability must be in [0, 1]")
    generator = ensure_rng(rng)

    repeated: list[int] = list(range(attachment))
    adjacency: list[set[int]] = [set() for _ in range(num_nodes)]
    edges: list[tuple[int, int]] = []

    def add_edge(u: int, v: int) -> None:
        adjacency[u].add(v)
        adjacency[v].add(u)
        edges.append((u, v))
        repeated.append(u)
        repeated.append(v)

    for new_node in range(attachment, num_nodes):
        added = 0
        last_target: int | None = None
        while added < attachment:
            close_triangle = (
                last_target is not None
                and generator.random() < triangle_probability
                and adjacency[last_target]
            )
            if close_triangle:
                candidates = [c for c in adjacency[last_target] if c != new_node]
                candidates = [c for c in candidates if c not in adjacency[new_node]]
                if candidates:
                    target = candidates[int(generator.integers(0, len(candidates)))]
                    add_edge(new_node, target)
                    last_target = target
                    added += 1
                    continue
            target = repeated[int(generator.integers(0, len(repeated)))]
            if target != new_node and target not in adjacency[new_node]:
                add_edge(new_node, target)
                last_target = target
                added += 1
    return Graph(num_nodes, np.asarray(edges, dtype=np.int64), directed=False)


def reference_bfs_partition(
    graph: Graph, num_parts: int, generator: np.random.Generator
) -> np.ndarray:
    """BFS partition growth with a per-neighbour loop over numpy scalars:
    :func:`repro.graphs.partition.partition_assignment` (``method="bfs"``)
    must match its assignment."""
    target_size = int(np.ceil(graph.num_nodes / num_parts))
    assignment = np.full(graph.num_nodes, -1, dtype=np.int64)
    visit_order = generator.permutation(graph.num_nodes)
    order_position = 0
    part = 0
    part_size = 0
    frontier: deque[int] = deque()

    def next_unassigned() -> int | None:
        nonlocal order_position
        while order_position < len(visit_order):
            candidate = int(visit_order[order_position])
            order_position += 1
            if assignment[candidate] < 0:
                return candidate
        return None

    while True:
        if not frontier:
            seed = next_unassigned()
            if seed is None:
                break
            frontier.append(seed)
        node = frontier.popleft()
        if assignment[node] >= 0:
            continue
        assignment[node] = part
        part_size += 1
        if part_size >= target_size and part < num_parts - 1:
            part += 1
            part_size = 0
            frontier.clear()
            continue
        for neighbor in graph.out_neighbors(node):
            if assignment[neighbor] < 0:
                frontier.append(int(neighbor))
        for neighbor in graph.in_neighbors(node):
            if assignment[neighbor] < 0:
                frontier.append(int(neighbor))
    return assignment


# --------------------------------------------------------------------------- #
# scalar random walk with restart
# --------------------------------------------------------------------------- #
# Algorithm 1 and Algorithm 3's ``FreqSampling`` share one walk skeleton —
# start at ``v0``, at each step restart to ``v0`` with probability τ,
# otherwise move to a neighbour, collect unique visited nodes, succeed when
# ``n`` distinct nodes are gathered within ``L`` steps — and differ only in
# how the next neighbour is chosen.  :func:`random_walk_nodes` is that
# skeleton, one step at a time over a :class:`Graph`; the chooser is a
# callable.  The engine's resumable walker
# (:func:`repro.sharding.walker.advance_walk`) must match it draw for draw.

NeighborChooser = Callable[[int, np.ndarray, np.random.Generator], int | None]


def walk_neighbors(graph: Graph, node: int, direction: str) -> np.ndarray:
    """Neighbours reachable in one walk step from ``node``."""
    if direction == "out":
        return graph.out_neighbors(node)
    if direction == "in":
        return graph.in_neighbors(node)
    if direction == "both":
        merged = np.concatenate([graph.out_neighbors(node), graph.in_neighbors(node)])
        return np.unique(merged)
    raise SamplingError(f"direction must be 'out', 'in', or 'both', got {direction!r}")


def uniform_chooser(
    _current: int, candidates: np.ndarray, generator: np.random.Generator
) -> int | None:
    """Algorithm 1's neighbour rule: uniform over the candidate set."""
    if len(candidates) == 0:
        return None
    return int(candidates[int(generator.integers(0, len(candidates)))])


def random_walk_nodes(
    graph: Graph,
    start: int,
    target_size: int,
    *,
    walk_length: int,
    restart_probability: float,
    rng: int | np.random.Generator | None = None,
    allowed: set[int] | None = None,
    chooser: NeighborChooser = uniform_chooser,
    direction: str = "both",
) -> list[int] | None:
    """Collect ``target_size`` unique nodes by RWR, or ``None`` on failure.

    ``allowed`` is an optional whitelist (Algorithm 1 passes the r-hop ball
    ``N_r(v0)``); ``chooser`` picks the next node from the candidate
    neighbours and returns ``None`` for "stuck", which forces a restart to
    ``v0``.  Returns the visited node list (start first, insertion order)
    when ``target_size`` nodes were gathered within ``walk_length`` steps —
    Algorithm 1 only admits complete subgraphs.
    """
    if not 0 <= start < graph.num_nodes:
        raise SamplingError(f"start node {start} out of range")
    if target_size < 1:
        raise SamplingError(f"target_size must be >= 1, got {target_size}")
    if walk_length < 1:
        raise SamplingError(f"walk_length must be >= 1, got {walk_length}")
    if not 0.0 <= restart_probability < 1.0:
        raise SamplingError(
            f"restart_probability must be in [0, 1), got {restart_probability}"
        )
    generator = ensure_rng(rng)

    visited: dict[int, None] = {start: None}  # ordered set
    if target_size == 1:
        return [start]
    current = start
    for _ in range(walk_length):
        if generator.random() < restart_probability:
            current = start
        candidates = walk_neighbors(graph, current, direction)
        if allowed is not None and len(candidates):
            mask = np.fromiter(
                (int(c) in allowed for c in candidates), dtype=bool, count=len(candidates)
            )
            candidates = candidates[mask]
        next_node = chooser(current, candidates, generator)
        if next_node is None:
            # Dead end under the constraints: teleport home and try again.
            current = start
            continue
        current = next_node
        if next_node not in visited:
            visited[next_node] = None
            if len(visited) == target_size:
                return list(visited)
    return None


def adaptive_neighbor_probabilities(
    frequencies: np.ndarray, threshold: int, decay: float
) -> np.ndarray:
    """Eq. 9's weights ``e_v`` for a candidate set, normalised (sums to 1),
    or an all-zero vector when every candidate is saturated."""
    weights = adaptive_neighbor_weights(frequencies, threshold, decay)
    total = weights.sum()
    if total <= 0:
        return np.zeros_like(weights)
    return weights / total


def make_frequency_chooser(frequency, decay: float) -> NeighborChooser:
    """A :func:`random_walk_nodes` chooser implementing Eq. 9 against
    ``frequency.counts`` and ``frequency.threshold``."""

    def chooser(
        _current: int, candidates: np.ndarray, generator: np.random.Generator
    ) -> int | None:
        if len(candidates) == 0:
            return None
        probabilities = adaptive_neighbor_probabilities(
            frequency.counts[candidates], frequency.threshold, decay
        )
        if probabilities.sum() <= 0:
            return None
        choice = generator.choice(len(candidates), p=probabilities)
        return int(candidates[int(choice)])

    return chooser


def frequency_walk(
    graph: Graph,
    frequency: FrequencyVector,
    start: int,
    target_size: int,
    *,
    walk_length: int,
    restart_probability: float,
    decay: float,
    rng: int | np.random.Generator | None = None,
    direction: str = "both",
) -> list[int] | None:
    """One Eq. 9-weighted RWR with no r-hop whitelist; the node list or
    ``None``."""
    return random_walk_nodes(
        graph,
        start,
        target_size,
        walk_length=walk_length,
        restart_probability=restart_probability,
        rng=rng,
        chooser=make_frequency_chooser(frequency, decay),
        direction=direction,
    )


# --------------------------------------------------------------------------- #
# serial sampling oracle
# --------------------------------------------------------------------------- #
@dataclasses.dataclass
class SerialSample:
    """What the serial samplers produce (``projected`` for Algorithm 1,
    ``frequency`` and the stage split for Algorithm 3)."""

    container: SubgraphContainer
    stats: SamplingStats
    projected: object = None
    frequency: FrequencyVector | None = None
    stage1_count: int = 0
    stage2_count: int = 0


def serial_naive(graph, config, rng) -> SerialSample:
    """Algorithm 1: θ-projection, Bernoulli(q) starts, one child stream per
    start walking its r-hop ball."""
    generator = ensure_rng(rng)
    stats = SamplingStats(chunk_size=config.chunk_size)
    projected = reference_project_in_degree(graph, config.theta, generator)
    selected = np.flatnonzero(generator.random(projected.num_nodes) < config.sampling_rate)
    root = derive_root_entropy(generator)
    stats.starts_selected = len(selected)
    container = SubgraphContainer()
    for start in selected.tolist():
        ball = k_hop_nodes(projected, start, config.hops, direction=config.direction)
        if len(ball) < config.subgraph_size:
            stats.starts_skipped += 1
            continue
        stats.walks_attempted += 1
        walked = random_walk_nodes(
            projected, start, config.subgraph_size,
            walk_length=config.walk_length,
            restart_probability=config.restart_probability,
            rng=child_generator(root, start), allowed=ball,
            direction=config.direction,
        )
        if walked is None:
            stats.walks_failed += 1
            continue
        container.add(Subgraph(*projected.subgraph(walked)))
        stats.subgraphs_emitted += 1
    return SerialSample(container, stats, projected=projected)


def serial_dual_stage(graph, config, rng) -> SerialSample:
    """Algorithm 3: SCS on ``graph``, then BES on the residual graph of the
    nodes below the cap, each pass proposing a chunk of walks against the
    counts at the chunk's start and validating them in start order."""
    generator = ensure_rng(rng)
    stats = SamplingStats(chunk_size=config.chunk_size)
    frequency = FrequencyVector(graph.num_nodes, config.threshold)
    container = SubgraphContainer()

    def frequency_pass(walk_graph, node_ids, size) -> int:
        live = frequency.counts[node_ids].copy()
        selected = np.flatnonzero(
            generator.random(walk_graph.num_nodes) < config.sampling_rate
        )
        root = derive_root_entropy(generator)
        stats.starts_selected += len(selected)
        emitted = 0
        for begin in range(0, len(selected), config.chunk_size):
            snapshot = SimpleNamespace(counts=live.copy(), threshold=config.threshold)
            chooser = make_frequency_chooser(snapshot, config.decay)
            for start in selected[begin : begin + config.chunk_size].tolist():
                if snapshot.counts[start] >= config.threshold:
                    stats.starts_skipped += 1
                    continue
                stats.walks_attempted += 1
                walked = random_walk_nodes(
                    walk_graph, start, size,
                    walk_length=config.walk_length,
                    restart_probability=config.restart_probability,
                    rng=child_generator(root, start), chooser=chooser,
                    direction=config.direction,
                )
                if walked is None:
                    stats.walks_failed += 1
                    continue
                if np.any(live[walked] >= config.threshold):
                    stats.walks_rejected += 1
                    continue
                live[walked] += 1
                nodes = node_ids[walked]
                frequency.record_subgraph(nodes)
                container.add(Subgraph(graph.subgraph(nodes)[0], nodes))
                emitted += 1
        stats.subgraphs_emitted += emitted
        return emitted

    stage1 = frequency_pass(
        graph, np.arange(graph.num_nodes, dtype=np.int64), config.subgraph_size
    )
    stage2 = 0
    if config.include_boundary:
        remaining = frequency.available_nodes()
        if len(remaining) >= config.boundary_subgraph_size:
            residual, node_ids = graph.subgraph(remaining)
            stage2 = frequency_pass(residual, node_ids, config.boundary_subgraph_size)
    return SerialSample(
        container, stats, frequency=frequency, stage1_count=stage1, stage2_count=stage2
    )
