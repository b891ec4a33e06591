"""Subgraph extraction: Algorithm 1 (naive) and Algorithm 3 (dual-stage)."""

from repro.sampling.container import Subgraph, SubgraphContainer
from repro.sampling.random_walk import random_walk_nodes
from repro.sampling.naive import NaiveSamplingConfig, extract_subgraphs_naive
from repro.sampling.frequency import FrequencyVector, adaptive_neighbor_probabilities
from repro.sampling.dual_stage import (
    DualStageResult,
    DualStageSamplingConfig,
    extract_subgraphs_dual_stage,
)
from repro.sampling.random_sets import extract_subgraphs_random
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
    "random_walk_nodes",
    "NaiveSamplingConfig",
    "extract_subgraphs_naive",
    "FrequencyVector",
    "adaptive_neighbor_probabilities",
    "DualStageSamplingConfig",
    "DualStageResult",
    "extract_subgraphs_dual_stage",
    "extract_subgraphs_random",
    "SamplingStats",
    "NaiveSamplingRun",
    "DualStageRun",
    "sample_naive",
    "sample_dual_stage",
    "SubgraphStore",
    "SubgraphStoreWriter",
]
