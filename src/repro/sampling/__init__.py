"""Subgraph extraction: Algorithm 1 (naive) and Algorithm 3 (dual-stage).

Each sampler has one entry on a flat graph, :func:`sample_naive` /
:func:`sample_dual_stage`, over the one engine in
:mod:`repro.sharding.coordinator` (whose ``sample_dual_stage_sharded``
also takes a shard set).
"""

from repro.sampling.container import Subgraph, SubgraphContainer
from repro.sampling.naive import NaiveSamplingConfig
from repro.sampling.frequency import FrequencyVector
from repro.sampling.dual_stage import DualStageSamplingConfig
from repro.sampling.random_sets import sample_random_sets
from repro.sampling.parallel import (
    DualStageRun,
    NaiveSamplingRun,
    SamplingStats,
    sample_dual_stage,
    sample_naive,
)
from repro.sampling.store import SubgraphStore, SubgraphStoreWriter

__all__ = [
    "Subgraph",
    "SubgraphContainer",
    "NaiveSamplingConfig",
    "FrequencyVector",
    "DualStageSamplingConfig",
    "sample_random_sets",
    "SamplingStats",
    "NaiveSamplingRun",
    "DualStageRun",
    "sample_naive",
    "sample_dual_stage",
    "SubgraphStore",
    "SubgraphStoreWriter",
]
