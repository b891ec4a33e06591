"""The samplers' entry points on a flat graph, and their shared records.

Algorithm 1 (naive RWR) and Algorithm 3 (dual-stage SCS+BES) have one
engine, the chunk-synchronous coordinator of
:mod:`repro.sharding.coordinator`.  :func:`sample_dual_stage` hands it the
graph, and :func:`sample_naive` the run's θ-projection of it, as a single
shard that owns every node — the graph's own CSR arrays, no halo, no
partition pass (:func:`~repro.sharding.partition.whole_graph_shard_set`)
— hosted in process.  Two rules keep the privacy analysis intact for
every layout:

1. **One child generator per start node.**  All walk randomness comes from
   :func:`repro.utils.rng.child_generator` keyed by ``(root_entropy,
   start_node)``, so a walk's outcome is independent of which shard
   runs it: flat and sharded runs of one seed produce
   bit-identical :class:`SubgraphContainer`\\ s.

2. **Chunk-synchronous cap validation.**  Eq. 9's probabilities depend on
   the shared frequency vector.  Start nodes are processed in fixed-size
   chunks: walks propose against a frequency *snapshot* taken at the
   chunk's start, then the coordinator validates each proposal, in
   start-node order, against the *live* :class:`FrequencyVector` and
   rejects any walk that would push a node past the cap ``M``.  The
   occurrence bound ``N_g* = M`` therefore holds exactly; staleness only
   costs rejected walks (reported in :class:`SamplingStats`), never
   privacy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from repro.graphs.graph import Graph
from repro.obs import Observability
from repro.sampling.container import SubgraphContainer
from repro.sampling.frequency import FrequencyVector

__all__ = [
    "SamplingStats",
    "NaiveSamplingRun",
    "DualStageRun",
    "sample_naive",
    "sample_dual_stage",
]


@dataclass
class SamplingStats:
    """Counters the engine keeps while sampling.

    Attributes:
        chunk_size: start nodes per synchronisation chunk.
        starts_selected: nodes that passed the Bernoulli(q) selection.
        starts_skipped: selected starts not walked (r-hop ball smaller than
            ``n`` for the naive sampler; start already saturated in the
            snapshot for the dual-stage sampler).
        walks_attempted: walks actually run.
        walks_failed: walks that exhausted the step budget ``L``.
        walks_rejected: proposals the coordinator rejected because a stale
            snapshot let them include a node at the cap ``M`` (dual-stage
            only — this is the price of chunk-level staleness).
        subgraphs_emitted: accepted subgraphs added to the container.
        stage_seconds: wall time per stage (``projection`` / ``walks`` for
            naive; ``stage1`` / ``stage2`` for dual-stage).  Every stage
            key of the algorithm that ran is always present — a skipped
            stage (e.g. BES on SCS-only configs) reads 0.0.
        num_shards: shards the graph was split into (1 = flat).
        frontier_forwards / exchange_rounds: walks handed to another
            shard, and the BSP rounds that carried them.
        shard_seconds / shard_walks: per-shard host time and walks
            advanced.
        exchange_wait_seconds: coordinator time spent in the walk loop.
    """

    # Every shard is hosted in process; the constant stays only because
    # perfbench/workloads.py reads ``stats.transport``.
    transport: ClassVar[str] = "local"

    chunk_size: int = 1
    starts_selected: int = 0
    starts_skipped: int = 0
    walks_attempted: int = 0
    walks_failed: int = 0
    walks_rejected: int = 0
    subgraphs_emitted: int = 0
    stage_seconds: dict[str, float] = field(default_factory=dict)
    num_shards: int = 1
    frontier_forwards: int = 0
    exchange_rounds: int = 0
    shard_seconds: dict[int, float] = field(default_factory=dict)
    shard_walks: dict[int, int] = field(default_factory=dict)
    exchange_wait_seconds: float = 0.0

    @property
    def cap_hit_rate(self) -> float:
        """Fraction of attempted walks rejected by cap validation."""
        if self.walks_attempted == 0:
            return 0.0
        return self.walks_rejected / self.walks_attempted

    @property
    def total_seconds(self) -> float:
        """Sum of all recorded stage wall times."""
        return float(sum(self.stage_seconds.values()))


@dataclass
class NaiveSamplingRun:
    """Output of :func:`sample_naive`.

    ``container`` is whatever sink the caller supplied (the default
    in-memory :class:`SubgraphContainer`, or e.g. a
    :class:`~repro.sampling.store.SubgraphStoreWriter` awaiting
    ``finalize()``).  Its subgraphs are induced on the θ-projected rows,
    so every one has in-degree ≤ θ.
    """

    container: SubgraphContainer
    stats: SamplingStats


@dataclass
class DualStageRun:
    """Output of :func:`sample_dual_stage` and
    :func:`~repro.sharding.sample_dual_stage_sharded`.

    ``container`` is the caller-supplied sink (see
    :class:`NaiveSamplingRun`); in-memory container by default.
    """

    container: SubgraphContainer
    frequency: FrequencyVector
    stage1_count: int
    stage2_count: int
    stats: SamplingStats


def sample_naive(
    graph: Graph,
    config,
    rng: int | np.random.Generator | None = None,
    *,
    obs: Observability | None = None,
    sink=None,
) -> NaiveSamplingRun:
    """Run Algorithm 1 on ``graph``.

    ``config`` is a :class:`repro.sampling.naive.NaiveSamplingConfig`.  The
    master generator draws the θ-projection, the Bernoulli(q) selection
    mask, and one root entropy value; each selected start then walks its
    r-hop ball under its own child generator.

    ``obs`` receives ``sampling.projection`` / ``sampling.walks`` stage
    spans and the engine counters; the observability layer never touches
    the randomness, so it cannot perturb the sampled container.

    ``sink`` is where accepted subgraphs are emitted — anything with the
    container's ``add(Subgraph)`` shape.  Passing a
    :class:`~repro.sampling.store.SubgraphStoreWriter` spills the pool
    straight to disk, keeping sampler memory flat in the pool size.  The
    emitted *sequence* is identical for every sink, so a store-backed run
    trains bit-identically to an in-memory one.
    """
    from repro.sharding.coordinator import sample_naive as run_naive

    return run_naive(graph, config, rng, obs=obs, sink=sink)


def sample_dual_stage(
    graph: Graph,
    config,
    rng: int | np.random.Generator | None = None,
    *,
    obs: Observability | None = None,
    sink=None,
) -> DualStageRun:
    """Run Algorithm 3 on ``graph``.

    ``config`` is a :class:`repro.sampling.dual_stage.DualStageSamplingConfig`.
    Both stages use the chunk-synchronous propose/validate scheme, so the
    occurrence cap ``M`` is enforced exactly by the coordinator.

    ``obs`` receives ``sampling.stage1`` / ``sampling.stage2`` stage spans
    and the engine counters.  ``stats.stage_seconds`` always carries *both*
    stage keys — ``stage2`` is 0.0 on SCS-only configs — so timing
    consumers never have to guard a missing key.

    ``sink`` redirects emitted subgraphs (see :func:`sample_naive`) — the
    cap bookkeeping lives in the coordinator's :class:`FrequencyVector`,
    never in the sink, so spilling to disk cannot perturb validation.
    """
    from repro.sharding.coordinator import sample_dual_stage_sharded
    from repro.sharding.partition import whole_graph_shard_set

    return sample_dual_stage_sharded(
        whole_graph_shard_set(graph), config, rng, obs=obs, sink=sink
    )
