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
* :mod:`~repro.sharding.coordinator` — :func:`sample_naive_sharded` /
  :func:`sample_dual_stage_sharded`: the sampling engine — chunk-
  synchronous propose/validate with BSP cross-shard frontier exchange.
  The flat samplers run here too, on :func:`whole_graph_shard_set`.
* :mod:`~repro.sharding.sink` — :class:`ShardedStoreSink`: per-shard
  subgraph stores merged back into emission order.
"""

from repro.sharding.partition import (
    GraphShard,
    ShardSet,
    build_shard_set,
    load_shard,
    whole_graph_shard_set,
)
from repro.sharding.walker import WalkParams, WalkTask
from repro.sharding.coordinator import (
    ShardedNaiveRun,
    sample_dual_stage_sharded,
    sample_naive_sharded,
)
from repro.sharding.sink import ShardedStoreSink

__all__ = [
    "GraphShard",
    "ShardSet",
    "build_shard_set",
    "load_shard",
    "whole_graph_shard_set",
    "WalkParams",
    "WalkTask",
    "ShardedNaiveRun",
    "sample_naive_sharded",
    "sample_dual_stage_sharded",
    "ShardedStoreSink",
]
