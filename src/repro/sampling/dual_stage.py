"""Algorithm 3 — the dual-stage adaptive frequency sampling scheme (PrivIM*).

Stage 1, **Sensitivity-Constrained Sampling (SCS)**: frequency-weighted RWR
over the *original* graph (no θ-projection), with Eq. 9 probabilities and
the global cap ``M``, giving occurrence bound ``N_g* = M``.

Stage 2, **Boundary-Enhanced Sampling (BES)**: nodes that hit the cap are
removed; the frequency sampler runs again on the residual graph with a
smaller subgraph size ``n / s``, harvesting boundary clusters that are too
small to fill full-size subgraphs.  Because the same frequency vector keeps
counting, the cap — and hence the privacy budget — is unchanged.

This module holds the configuration;
:func:`repro.sampling.sample_dual_stage` (flat graph) and
:func:`repro.sharding.sample_dual_stage_sharded` (shard set) run it on the
one sampling engine.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SamplingError


@dataclass
class DualStageSamplingConfig:
    """Parameters of Algorithm 3 (paper defaults from Section V-A).

    Attributes:
        subgraph_size: ``n``, stage-1 subgraph size.
        threshold: ``M``, the global frequency cap.
        decay: μ, Eq. 9's decay factor.
        sampling_rate: ``q``, start-node selection probability.
        walk_length: ``L``, per-walk step budget (paper: 200).
        restart_probability: τ (paper: 0.3).
        boundary_divisor: ``s`` — stage 2 uses subgraphs of size ``n / s``.
        include_boundary: run stage 2 (disable to get "PrivIM+SCS").
        direction: walk traversal direction, ``"out"``, ``"in"`` or
            ``"both"``.
        chunk_size: start nodes per frequency-snapshot synchronisation
            chunk.  Part of the algorithm definition for the dual-stage
            sampler (walks inside a chunk see the same snapshot), so it
            must be held fixed when comparing shard or worker counts;
            larger values expose more parallelism but raise the cap-hit
            rejection rate.
    """

    subgraph_size: int = 40
    threshold: int = 4
    decay: float = 1.0
    sampling_rate: float = 0.1
    walk_length: int = 200
    restart_probability: float = 0.3
    boundary_divisor: int = 2
    include_boundary: bool = True
    direction: str = "both"
    chunk_size: int = 32

    def validate(self) -> None:
        """Raise :class:`SamplingError` on out-of-range parameters."""
        if self.subgraph_size < 1:
            raise SamplingError(f"subgraph_size must be >= 1, got {self.subgraph_size}")
        if self.threshold < 1:
            raise SamplingError(f"threshold M must be >= 1, got {self.threshold}")
        if self.decay < 0:
            raise SamplingError(f"decay mu must be >= 0, got {self.decay}")
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
        if self.boundary_divisor < 1:
            raise SamplingError(
                f"boundary_divisor s must be >= 1, got {self.boundary_divisor}"
            )
        if self.chunk_size < 1:
            raise SamplingError(f"chunk_size must be >= 1, got {self.chunk_size}")

    @property
    def boundary_subgraph_size(self) -> int:
        """Stage-2 subgraph size ``max(n // s, 2)``."""
        return max(self.subgraph_size // self.boundary_divisor, 2)
