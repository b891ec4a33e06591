"""Per-subgraph gradients: the serial oracle and the vectorized union path.

Algorithm 2 needs one clipped gradient per sampled subgraph.  Two
interchangeable implementations live here:

* :func:`subgraph_gradient` — one forward/backward per subgraph.  This is
  the permanent **oracle**: simple, obviously correct, and the reference
  every other execution strategy is differential-tested against
  (``tests/oracles.py``).
* :func:`batched_subgraph_gradients` — concatenates the batch's subgraphs
  into one disjoint union (:class:`~repro.core.compute_plan.BatchedComputePlan`)
  and runs a *single* forward/backward, recovering each member's full
  gradient from segment-level interception of the parameter-gradient
  reductions (:mod:`repro.nn.per_example`).  On a block-diagonal graph all
  activations are row-local, so every captured segment reduction performs
  the same float ops in the same order as the loop — the results are
  bit-identical, not merely close.

The one place the union cannot reproduce the loop's bits is a subgraph
with **zero edges**: the attention layers' empty-edge branch multiplies by
``0.0``, whose signed-zero gradients have no union equivalent.  Those
members fall back to :func:`subgraph_gradient` at their batch positions
(uniformly for every architecture — edgeless subgraphs are rare and tiny).
"""

from __future__ import annotations

import numpy as np

from repro.core.compute_plan import BatchedComputePlan, ComputePlan
from repro.core.loss import (
    PenaltyLossConfig,
    per_example_losses,
    probabilistic_penalty_loss,
)
from repro.dp.clipping import clip_to_norm
from repro.gnn.models import GNN
from repro.nn.per_example import PerExampleCapture, capturing
from repro.nn.tensor import Tensor

__all__ = ["subgraph_gradient", "batched_subgraph_gradients"]

#: (gradient, loss, raw_norm) — the per-subgraph result triple.
GradientTriple = tuple[np.ndarray, float, float]


def subgraph_gradient(
    model: GNN,
    plan: ComputePlan,
    loss_config: PenaltyLossConfig,
    clip_bound: float | None,
) -> GradientTriple:
    """One clipped per-subgraph gradient: ``(gradient, loss, raw_norm)``.

    This single function is the gradient computation for the serial path,
    every pool worker, and the vectorized path's differential-testing
    oracle — sharing the code is what makes the bit-identity guarantee
    structural rather than incidental.
    """
    features = Tensor(plan.features(model.config.in_features))
    model.zero_grad()
    seed_probabilities = model(features, plan.edge_index, plan.edge_weight, plan=plan)
    loss = probabilistic_penalty_loss(
        seed_probabilities,
        plan.edge_index,
        plan.edge_weight,
        plan.num_nodes,
        loss_config,
        plan=plan,
    )
    loss.backward()
    gradient = model.gradient_vector()
    raw_norm = float(np.linalg.norm(gradient))
    if clip_bound is not None:
        gradient = clip_to_norm(gradient, clip_bound)
    return gradient, float(loss.data), raw_norm


def _union_gradients(
    model: GNN,
    member_plans: list[ComputePlan],
    loss_config: PenaltyLossConfig,
    clip_bound: float | None,
) -> list[GradientTriple]:
    """All members' triples from one forward/backward over the union."""
    union = BatchedComputePlan(member_plans)
    features = Tensor(union.features(model.config.in_features))
    model.zero_grad()
    capture = PerExampleCapture(union.node_bounds)
    with capturing(capture):
        seed_probabilities = model(
            features, union.edge_index, union.edge_weight, plan=union
        )
        losses = per_example_losses(seed_probabilities, union, loss_config)
        # Each member's loss is its own root: d(Σ losses)/d loss_k = 1.
        losses.backward(np.ones(losses.shape))
    matrix = capture.gradient_matrix(model.parameters())
    results: list[GradientTriple] = []
    for example, loss in enumerate(losses.data):
        gradient = matrix[example]
        raw_norm = float(np.linalg.norm(gradient))
        if clip_bound is not None:
            gradient = clip_to_norm(gradient, clip_bound)
        else:
            gradient = gradient.copy()
        results.append((gradient, float(loss), raw_norm))
    return results


def batched_subgraph_gradients(
    model: GNN,
    plans,
    indices,
    loss_config: PenaltyLossConfig,
    clip_bound: float | None,
) -> list[GradientTriple]:
    """Clipped gradients for ``indices`` via the block-diagonal union path.

    Args:
        model: the GNN (its weights are read, its ``.grad`` slots scratch).
        plans: a :class:`~repro.core.compute_plan.ComputePlanCache`.
        indices: container slot indices, in batch order (duplicates fine —
            a subgraph sampled twice contributes two identical rows).
        loss_config: Eq. 5 hyperparameters.
        clip_bound: per-example clip bound ``C`` (``None`` = no clipping).

    Returns:
        ``(gradient, loss, raw_norm)`` triples in batch-index order,
        byte-equal to running :func:`subgraph_gradient` per index.
    """
    indices = [int(index) for index in indices]
    member_plans = [plans.plan(index) for index in indices]
    results: list[GradientTriple | None] = [None] * len(indices)
    union_positions = [
        position
        for position, plan in enumerate(member_plans)
        if plan.edge_index.shape[1] > 0
    ]
    # Edgeless members take the serial oracle (signed-zero gradients of the
    # empty-edge branch have no union equivalent); everything else batches.
    for position, plan in enumerate(member_plans):
        if plan.edge_index.shape[1] == 0:
            results[position] = subgraph_gradient(
                model, plan, loss_config, clip_bound
            )
    if union_positions:
        union_results = _union_gradients(
            model,
            [member_plans[position] for position in union_positions],
            loss_config,
            clip_bound,
        )
        for position, triple in zip(union_positions, union_results):
            results[position] = triple
    return results  # type: ignore[return-value]
