"""The probabilistic penalty loss for IM (Eq. 5, via Theorem 2).

Given the GNN's per-node seed probabilities ``x_u = φ(h_u)``, the loss is

``L(G; W) = Σ_u Π_{i=1..j} (1 − p̂_i(u)) + λ Σ_u x_u``

where ``p̂_i(u) = φ(Σ_{v ∈ N(u)} w_vu · p̂_{i-1}(v))`` is Theorem 2's
message-passing upper bound on the probability that node ``u`` is activated
at diffusion step ``i`` (with ``p̂_0 = x``).  The first term rewards
covering every node within ``j`` steps; the second applies Erdős-style
probabilistic pressure against selecting everything.  φ maps aggregates
into ``[0, 1]`` — the paper uses a straight clip; a smooth ``1 − e^{−x}``
variant is provided for the DESIGN.md ablation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import TrainingError
from repro.gnn.message_passing import aggregate_neighbors
from repro.nn import functional as F
from repro.nn.tensor import Tensor

_PHI_CHOICES = ("clamp", "one_minus_exp")


@dataclass
class PenaltyLossConfig:
    """Loss hyperparameters.

    Attributes:
        diffusion_steps: ``j`` — the paper evaluates with ``j = 1`` and
            requires ``j ≤ r`` (the GNN depth).
        penalty: λ, the seed-mass penalty weight.
        phi: activation bounding probabilities — ``"clamp"`` (paper) or
            ``"one_minus_exp"`` (smooth ablation variant).
        normalize: divide both terms by the node count so subgraphs of
            different sizes (stage 1 vs stage 2) contribute comparably
            before clipping.
    """

    diffusion_steps: int = 1
    penalty: float = 0.5
    phi: str = "clamp"
    normalize: bool = True

    def validate(self) -> None:
        """Raise :class:`TrainingError` on invalid settings."""
        if self.diffusion_steps < 1:
            raise TrainingError(
                f"diffusion_steps must be >= 1, got {self.diffusion_steps}"
            )
        if self.penalty < 0:
            raise TrainingError(f"penalty lambda must be >= 0, got {self.penalty}")
        if self.phi not in _PHI_CHOICES:
            raise TrainingError(f"phi must be one of {_PHI_CHOICES}, got {self.phi!r}")


def _apply_phi(tensor: Tensor, phi: str) -> Tensor:
    if phi == "clamp":
        return F.clamp01(tensor)
    return F.one_minus_exp(tensor)


def _check_probabilities(seed_probabilities: Tensor, num_nodes: int) -> None:
    if seed_probabilities.ndim != 1 or seed_probabilities.shape[0] != num_nodes:
        raise TrainingError(
            f"seed_probabilities must have shape ({num_nodes},), "
            f"got {seed_probabilities.shape}"
        )


def _survival(
    seed_probabilities: Tensor,
    edge_index: np.ndarray,
    edge_weight: np.ndarray | None,
    num_nodes: int,
    config: PenaltyLossConfig,
    plan,
) -> Tensor:
    """The ``(N, 1)`` column of ``Π_{i=1..j} (1 − p̂_i(u))`` (Theorem 2)."""
    survival: Tensor | None = None
    current = seed_probabilities.reshape(-1, 1)  # p̂_0, the seed distribution
    for _ in range(config.diffusion_steps):
        aggregated = aggregate_neighbors(
            current, edge_index, num_nodes, edge_weight=edge_weight, plan=plan
        )
        step_probability = _apply_phi(aggregated, config.phi)
        factor = 1.0 - step_probability
        survival = factor if survival is None else survival * factor
        current = step_probability
    return survival


def probabilistic_penalty_loss(
    seed_probabilities: Tensor,
    edge_index: np.ndarray,
    edge_weight: np.ndarray | None,
    num_nodes: int,
    config: PenaltyLossConfig | None = None,
    *,
    plan=None,
) -> Tensor:
    """Eq. 5 on one (sub)graph.

    Args:
        seed_probabilities: ``(N,)`` tensor of ``x_u = φ(h_u)`` from the GNN.
        edge_index: ``(2, E)`` arcs (source influences target).
        edge_weight: ``(E,)`` influence probabilities ``w_vu`` (defaults 1).
        num_nodes: N.
        config: loss hyperparameters.
        plan: optional compute plan built for the same edge set (reuses
            validated/derived arrays across diffusion steps and calls).

    Returns:
        Scalar loss tensor.
    """
    config = config or PenaltyLossConfig()
    config.validate()
    _check_probabilities(seed_probabilities, num_nodes)
    survival = _survival(
        seed_probabilities, edge_index, edge_weight, num_nodes, config, plan
    )
    uncovered = survival.sum()
    seed_mass = seed_probabilities.sum()
    loss = uncovered + config.penalty * seed_mass
    if config.normalize:
        loss = loss * (1.0 / num_nodes)
    return loss


def per_example_losses(
    seed_probabilities: Tensor,
    plan,
    config: PenaltyLossConfig | None = None,
) -> Tensor:
    """Eq. 5 per member subgraph of a batched (disjoint-union) plan.

    Runs the diffusion chain once over the union — every aggregate and φ
    is row-local on a block-diagonal graph, so each row carries exactly
    the bits the serial loop would compute for its subgraph — then reduces
    every member's loss from its contiguous row segment in one node
    (:func:`member_losses`).

    Args:
        seed_probabilities: ``(N_total,)`` seed probabilities on the union.
        plan: a :class:`~repro.core.compute_plan.BatchedComputePlan`
            (provides ``edge_index``/``edge_weight``/``node_bounds``).
        config: loss hyperparameters (shared by every member).

    Returns:
        A ``(B,)`` tensor of the members' losses, in plan order.
    """
    config = config or PenaltyLossConfig()
    config.validate()
    _check_probabilities(seed_probabilities, plan.num_nodes)
    survival = _survival(
        seed_probabilities, plan.edge_index, plan.edge_weight, plan.num_nodes, config, plan
    )
    return member_losses(survival, seed_probabilities, plan.node_bounds, config)


def member_losses(
    survival: Tensor,
    seed_probabilities: Tensor,
    bounds: np.ndarray,
    config: PenaltyLossConfig,
) -> Tensor:
    """Each member's ``uncovered + λ·seed_mass`` (over its size), as one node.

    Member ``k`` owns rows ``bounds[k]:bounds[k+1]``.  Its sums run over a
    contiguous row view, whose ``np.sum`` (pairwise) is bit-identical to
    summing the standalone subgraph's array — unlike ``segment_sum``, whose
    bincount order differs.  The backward writes both row gradients at
    once, byte-equal to one slice-and-sum chain per member
    (``tests/oracles.py``): with more than one member, each row gradient
    also gets the ``+ 0.0`` the other members' zero-filled slice
    gradients would add, which turns a ``-0.0`` into ``+0.0``.
    """
    bounds = np.asarray(bounds, dtype=np.int64)
    sizes = np.diff(bounds)
    losses = np.empty(len(sizes))
    for example, (start, stop) in enumerate(zip(bounds[:-1], bounds[1:])):
        uncovered = survival.data[start:stop].sum()
        seed_mass = seed_probabilities.data[start:stop].sum()
        loss = uncovered + seed_mass * config.penalty
        if config.normalize:
            loss = loss * (1.0 / (stop - start))
        losses[example] = loss

    def backward_fn(grad: np.ndarray) -> None:
        if config.normalize:
            grad = grad * (1.0 / sizes)
        for tensor, member_grad in (
            (survival, grad),
            (seed_probabilities, grad * config.penalty),
        ):
            if tensor.requires_grad:
                rows = np.repeat(member_grad, sizes).reshape(tensor.shape)
                if len(sizes) > 1:
                    rows += 0.0
                tensor._accumulate_owned(rows)

    return survival._make(losses, (survival, seed_probabilities), backward_fn)


class MaxCoverLoss:
    """Maximum-coverage adaptation (paper's Section VI remark).

    Max-cover is the ``j = 1`` special case of the IM objective where
    covering a node twice adds nothing — exactly what Eq. 5's product term
    already encodes — so this class is a thin, named configuration of
    :func:`probabilistic_penalty_loss` for downstream users solving
    coverage problems with the same private pipeline.
    """

    def __init__(self, penalty: float = 0.5, phi: str = "clamp") -> None:
        self.config = PenaltyLossConfig(diffusion_steps=1, penalty=penalty, phi=phi)
        self.config.validate()

    def __call__(
        self,
        seed_probabilities: Tensor,
        edge_index: np.ndarray,
        edge_weight: np.ndarray | None,
        num_nodes: int,
    ) -> Tensor:
        return probabilistic_penalty_loss(
            seed_probabilities, edge_index, edge_weight, num_nodes, self.config
        )
