"""Algorithm 3 — the dual-stage adaptive frequency sampling scheme (PrivIM*).

Stage 1, **Sensitivity-Constrained Sampling (SCS)**: frequency-weighted RWR
over the *original* graph (no θ-projection), with Eq. 9 probabilities and
the global cap ``M``, giving occurrence bound ``N_g* = M``.

Stage 2, **Boundary-Enhanced Sampling (BES)**: nodes that hit the cap are
removed; the frequency sampler runs again on the residual graph with a
smaller subgraph size ``n / s``, harvesting boundary clusters that are too
small to fill full-size subgraphs.  Because the same frequency vector keeps
counting, the cap — and hence the privacy budget — is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import SamplingError
from repro.graphs.graph import Graph
from repro.sampling.container import SubgraphContainer
from repro.sampling.frequency import FrequencyVector

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.sampling.parallel import SamplingStats


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
        direction: walk traversal direction.
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


@dataclass
class DualStageResult:
    """Output of :func:`extract_subgraphs_dual_stage`.

    Attributes:
        container: combined pool ``G_sub`` (stage 1 + stage 2).
        frequency: final frequency vector (indexed by original node id).
        stage1_count: subgraphs from SCS.
        stage2_count: subgraphs from BES.
        stats: engine counters (walks attempted / failed / cap-rejected,
            per-stage wall time) — see
            :class:`repro.sampling.parallel.SamplingStats`.
    """

    container: SubgraphContainer
    frequency: FrequencyVector
    stage1_count: int
    stage2_count: int
    stats: "SamplingStats | None" = None


def extract_subgraphs_dual_stage(
    graph: Graph,
    config: DualStageSamplingConfig | None = None,
    rng: int | np.random.Generator | None = None,
) -> DualStageResult:
    """Run Algorithm 3 (SCS, then optionally BES) on ``graph``.

    Returns a :class:`DualStageResult`; the occurrence of every node across
    ``result.container`` is guaranteed ≤ ``config.threshold`` (this is the
    invariant the privacy analysis needs, and both the coordinator's cap
    validation and the frequency vector enforce it with hard errors rather
    than clipping).  Both stages run on the chunk-synchronous engine of
    :mod:`repro.sharding.coordinator`, so the result is bit-identical to a
    sharded run of the same seed on any shard layout.
    """
    from repro.sampling.parallel import sample_dual_stage

    run = sample_dual_stage(graph, config or DualStageSamplingConfig(), rng)
    return DualStageResult(
        container=run.container,
        frequency=run.frequency,
        stage1_count=run.stage1_count,
        stage2_count=run.stage2_count,
        stats=run.stats,
    )
