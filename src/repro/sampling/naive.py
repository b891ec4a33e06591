"""Algorithm 1 — naive subgraph extraction on the θ-bounded graph.

Pipeline (Section III-B): project ``G`` to in-degree ≤ θ, then for every
node selected with sampling rate ``q`` run an RWR confined to the node's
r-hop ball, emitting a subgraph whenever ``n`` unique nodes are collected
within ``L`` steps.  Lemma 1 bounds any node's occurrences across the
output by ``N_g = Σ_{i=0..r} θ^i``.

This module holds the configuration; :func:`repro.sampling.sample_naive`
runs it on the one sampling engine.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SamplingError


@dataclass
class NaiveSamplingConfig:
    """Parameters of Algorithm 1 (paper defaults from Section V-A).

    Attributes:
        theta: maximum in-degree θ of the projected graph (paper: 10).
        subgraph_size: nodes per subgraph ``n``.
        hops: r — walks stay inside the start node's r-hop ball; should
            equal the GNN depth.
        sampling_rate: start-node selection probability ``q``
            (paper: 256 / |V_train|).
        walk_length: step budget ``L`` (paper: 200).
        restart_probability: RWR return probability τ (paper: 0.3).
        direction: walk traversal direction, ``"out"``, ``"in"`` or
            ``"both"``.  The default ``"out"`` is what
            Lemma 1's proof needs: a walk confined to the start node's
            out-direction r-hop ball can only capture node ``v`` when the
            start is one of ``v``'s ≤ Σθ^i ancestors in the θ-in-bounded
            graph.  ``"both"`` explores more structure but voids the
            occurrence bound (ancestor counts through out-edges are
            unbounded) — use it only with the dual-stage sampler, whose
            frequency cap enforces the bound directly.
        chunk_size: start nodes per scheduling chunk.  Purely a scheduling
            knob for the naive sampler; results do not depend on it.
    """

    theta: int = 10
    subgraph_size: int = 40
    hops: int = 3
    sampling_rate: float = 0.1
    walk_length: int = 200
    restart_probability: float = 0.3
    direction: str = "out"
    chunk_size: int = 32

    def validate(self) -> None:
        """Raise :class:`SamplingError` on out-of-range parameters."""
        if self.theta < 1:
            raise SamplingError(f"theta must be >= 1, got {self.theta}")
        if self.subgraph_size < 1:
            raise SamplingError(f"subgraph_size must be >= 1, got {self.subgraph_size}")
        if self.hops < 1:
            raise SamplingError(f"hops must be >= 1, got {self.hops}")
        if not 0.0 < self.sampling_rate <= 1.0:
            raise SamplingError(f"sampling_rate must be in (0, 1], got {self.sampling_rate}")
        if self.walk_length < 1:
            raise SamplingError(f"walk_length must be >= 1, got {self.walk_length}")
        if not 0.0 <= self.restart_probability < 1.0:
            raise SamplingError("restart_probability must be in [0, 1)")
        if self.direction not in ("out", "in", "both"):
            raise SamplingError(
                f"direction must be 'out', 'in', or 'both', got {self.direction!r}"
            )
        if self.chunk_size < 1:
            raise SamplingError(f"chunk_size must be >= 1, got {self.chunk_size}")
