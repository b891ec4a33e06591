"""Sharded giant-graph engine: edge-cut partitions with halo nodes.

Scales the samplers past single-machine RAM while keeping the DP contract
exact: the dual-stage occurrence caps ``N_g`` / ``N_g* = M`` are enforced
*globally* by the coordinator, and sharded sampling is bit-identical to the
serial single-graph sampler on the reassembled graph for every shard
count — shards are a memory layout, never a sampling parameter.

Modules:

* :mod:`~repro.sharding.partition` — :func:`build_shard_set` /
  :class:`ShardSet`: per-shard compact CSR with halo ghosts, persisted in
  the ``write_checksummed`` framing, loaded back via streaming verify +
  ``mmap``.
* :mod:`~repro.sharding.walker` — resumable walk tasks that carry their
  RNG child stream across shard boundaries, and :class:`ShardView`, the
  in-process host of one shard.
* :mod:`~repro.sharding.coordinator` — the sampling engine, and
  :func:`sample_dual_stage_sharded`: chunk-synchronous propose/validate
  with BSP cross-shard frontier exchange.  The flat samplers run here
  too, on :func:`whole_graph_shard_set`.

The coordinator emits accepted subgraphs in global start order, so its
``sink`` — an in-memory container or one
:class:`~repro.sampling.store.SubgraphStoreWriter` — receives the serial
sampler's exact sequence for every shard count.
"""

from repro.sharding.partition import (
    GraphShard,
    ShardSet,
    build_shard_set,
    load_shard,
    whole_graph_shard_set,
)
from repro.sharding.walker import WalkParams, WalkTask
from repro.sharding.coordinator import sample_dual_stage_sharded

__all__ = [
    "GraphShard",
    "ShardSet",
    "build_shard_set",
    "load_shard",
    "whole_graph_shard_set",
    "WalkParams",
    "WalkTask",
    "sample_dual_stage_sharded",
]
