"""Differential-testing oracles for the training stack and the samplers.

The repo's correctness story for every execution knob (``grad_mode``,
``grad_workers``, the fused scatter kernels, checkpoint/resume) is the same
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

The samplers have their own serial oracle, :func:`serial_naive` and
:func:`serial_dual_stage`: Algorithms 1 and 3 written directly over a
:class:`Graph` — ``project_in_degree``, ``k_hop_nodes``,
``random_walk_nodes`` with the uniform or Eq. 9 chooser, chunked cap
validation against a :class:`FrequencyVector`, and ``Graph.subgraph``
induction.  The sampling engine (the shard coordinator, flat or sharded)
must reproduce it bit for bit.
"""

from __future__ import annotations

import dataclasses

from types import SimpleNamespace

import numpy as np

from repro.core.trainer import DPGNNTrainer, DPTrainingConfig
from repro.gnn.models import build_gnn
from repro.graphs.degree import project_in_degree
from repro.graphs.neighborhoods import k_hop_nodes
from repro.sampling import FrequencyVector, Subgraph, SubgraphContainer
from repro.sampling.frequency import make_frequency_chooser
from repro.sampling.parallel import SamplingStats
from repro.sampling.random_walk import random_walk_nodes
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
def reference_segment_sum(values, segments, num_segments, *, flat_index=None):
    """``np.add.at`` reference for :func:`repro.nn.kernels.segment_sum`.

    ``flat_index`` is accepted (so this can stand in for the kernel) and
    ignored: the reference always scatters by ``segments``.
    """
    del flat_index
    values = np.asarray(values, dtype=np.float64)
    out = np.zeros((int(num_segments),) + values.shape[1:], dtype=np.float64)
    np.add.at(out, np.asarray(segments, dtype=np.int64), values)
    return out


def reference_segment_max(values, segments, num_segments, *, fill=-np.inf,
                          sort=None):
    """``np.maximum.at`` reference for :func:`repro.nn.kernels.segment_max`.

    ``sort`` is accepted and ignored, like ``flat_index`` above.
    """
    del sort
    values = np.asarray(values, dtype=np.float64)
    out = np.full((int(num_segments),) + values.shape[1:], fill, dtype=np.float64)
    np.maximum.at(out, np.asarray(segments, dtype=np.int64), values)
    return out


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
    projected = project_in_degree(graph, config.theta, generator)
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
