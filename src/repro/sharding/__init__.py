"""Sharded giant-graph engine: edge-cut partitions with halo nodes.

Scales the samplers past single-machine RAM while keeping the DP contract
exact: the dual-stage occurrence caps ``N_g`` / ``N_g* = M`` are enforced
*globally* by the coordinator, and sharded sampling is bit-identical to the
serial single-graph sampler on the reassembled graph for every
(num_shards, workers, transport) triple — shards, workers, and transports
are pure throughput knobs, never sampling parameters.

Modules:

* :mod:`~repro.sharding.partition` — :func:`build_shard_set` /
  :class:`ShardSet`: per-shard compact CSR with halo ghosts, persisted in
  the ``write_checksummed`` framing, loaded back via streaming verify +
  ``mmap``.
* :mod:`~repro.sharding.walker` — resumable walk tasks that carry their
  RNG child stream across shard boundaries.
* :mod:`~repro.sharding.transport` — pluggable shard channels:
  in-process, or TCP frame servers with a zero-copy no-pickle codec and
  pipelined scatter/gather.
* :mod:`~repro.sharding.runtime` — shard hosts behind the configured
  transport, with the frequency-snapshot channel.
* :mod:`~repro.sharding.coordinator` — :func:`sample_naive_sharded` /
  :func:`sample_dual_stage_sharded`: the sampling engine — chunk-
  synchronous propose/validate with pipelined cross-shard frontier
  exchange.  The flat samplers run here too, on
  :func:`whole_graph_shard_set`.
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
from repro.sharding.transport import (
    LocalTransport,
    ShardHostServer,
    ShardTransport,
    TcpTransport,
    TransportStats,
    pack_message,
    resolve_transport,
    unpack_message,
)
from repro.sharding.runtime import ShardRuntime
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
    "ShardTransport",
    "LocalTransport",
    "TcpTransport",
    "ShardHostServer",
    "TransportStats",
    "pack_message",
    "unpack_message",
    "resolve_transport",
    "ShardRuntime",
    "ShardedNaiveRun",
    "sample_naive_sharded",
    "sample_dual_stage_sharded",
    "ShardedStoreSink",
]
