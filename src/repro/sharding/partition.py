"""Edge-cut graph shards with halo nodes.

A :class:`GraphShard` holds the compact CSR rows of the nodes one shard
*owns* plus read-only ghost entries ("halo nodes") for every cross-shard
neighbour, so no arc is dropped: the union of all shards reproduces the
original graph bit-exactly (:meth:`ShardSet.reassemble` round-trips the
adjacency, weights, and :func:`repro.serving.graph_fingerprint`).

Layout per shard (all ids sorted ascending):

* ``owned``      — global ids this shard owns (``assignment == shard_id``);
* ``halo``       — global ids of cross-shard neighbours, with
  ``halo_owner[i]`` naming the shard that owns ``halo[i]``;
* ``global_ids`` — ``concat(owned, halo)``: the shard-local id space.
  Local ids ``< num_owned`` are owned, the rest are halo ghosts;
* out/in CSR over owned rows only, targets/sources stored as *local* ids.

Row order inside each CSR row is preserved verbatim from the parent graph,
which is what makes sharded random walks draw-for-draw identical to the
serial sampler (`repro.sampling.random_walk` consumes candidates in row
order).

Shard sets persist in the :func:`repro.core.checkpoint.write_checksummed`
framing — one ``shardset.bin`` index (partition assignment + manifest) and
one checksummed file per shard — and load back via streaming verification
plus ``mmap``, so sampling pages in only the shard rows its walks touch.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from repro.errors import GraphError
from repro.core.checkpoint import map_checksummed, read_checksummed, write_checksummed
from repro.graphs.graph import Graph
from repro.graphs.partition import (
    PartitionStats,
    compute_partition_stats,
    partition_assignment,
)

SHARD_MAGIC = b"REPRO-SHARD-v1"
SHARDSET_MAGIC = b"REPRO-SHARDSET-v1"
SHARDSET_INDEX = "shardset.bin"

__all__ = [
    "GraphShard",
    "ShardSet",
    "build_shard_set",
    "whole_graph_shard_set",
    "load_shard",
    "SHARDSET_INDEX",
]


def _shard_filename(shard_id: int) -> str:
    return f"shard-{shard_id:05d}.bin"


def _row_gather(indptr: np.ndarray, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Select CSR rows ``nodes``; returns ``(new_indptr, flat_indices)``.

    ``flat_indices`` indexes the parent's indices/weights arrays so the
    gathered rows keep their original within-row order.
    """
    starts = indptr[nodes]
    lengths = indptr[nodes + 1] - starts
    new_indptr = np.zeros(len(nodes) + 1, dtype=np.int64)
    np.cumsum(lengths, out=new_indptr[1:])
    total = int(new_indptr[-1])
    flat = np.repeat(starts - new_indptr[:-1], lengths) + np.arange(total, dtype=np.int64)
    return new_indptr, flat


def _to_local(owned: np.ndarray, halo: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Map global ids to shard-local ids (owned first, then halo)."""
    nodes = np.asarray(nodes, dtype=np.int64)
    if len(owned) == 0:
        return len(owned) + np.searchsorted(halo, nodes)
    pos = np.searchsorted(owned, nodes)
    clamped = np.minimum(pos, len(owned) - 1)
    is_owned = owned[clamped] == nodes
    return np.where(is_owned, clamped, len(owned) + np.searchsorted(halo, nodes))


class GraphShard:
    """One edge-cut shard: compact CSR over owned nodes + halo ghosts."""

    __slots__ = (
        "shard_id",
        "num_shards",
        "num_global_nodes",
        "directed",
        "owned",
        "halo",
        "halo_owner",
        "global_ids",
        "out_indptr",
        "out_local",
        "out_weights",
        "in_indptr",
        "in_local",
        "in_weights",
        "_mmap",
    )

    def __init__(
        self,
        shard_id: int,
        num_shards: int,
        num_global_nodes: int,
        directed: bool,
        owned: np.ndarray,
        halo: np.ndarray,
        halo_owner: np.ndarray,
        out_indptr: np.ndarray,
        out_local: np.ndarray,
        out_weights: np.ndarray,
        in_indptr: np.ndarray,
        in_local: np.ndarray,
        in_weights: np.ndarray,
        *,
        mapped=None,
    ) -> None:
        self.shard_id = int(shard_id)
        self.num_shards = int(num_shards)
        self.num_global_nodes = int(num_global_nodes)
        self.directed = bool(directed)
        self.owned = owned
        self.halo = halo
        self.halo_owner = halo_owner
        self.global_ids = (
            np.concatenate([owned, halo]) if len(halo) else np.asarray(owned)
        )
        self.out_indptr = out_indptr
        self.out_local = out_local
        self.out_weights = out_weights
        self.in_indptr = in_indptr
        self.in_local = in_local
        self.in_weights = in_weights
        self._mmap = mapped

    @property
    def num_owned(self) -> int:
        return len(self.owned)

    @property
    def num_halo(self) -> int:
        return len(self.halo)

    @property
    def nbytes(self) -> int:
        return sum(
            arr.nbytes
            for arr in (
                self.owned,
                self.halo,
                self.halo_owner,
                self.out_indptr,
                self.out_local,
                self.out_weights,
                self.in_indptr,
                self.in_local,
                self.in_weights,
            )
        )

    def is_owned(self, node: int) -> bool:
        pos = int(np.searchsorted(self.owned, node))
        return pos < len(self.owned) and int(self.owned[pos]) == node

    def owned_position(self, node: int) -> int:
        pos = int(np.searchsorted(self.owned, node))
        if pos >= len(self.owned) or int(self.owned[pos]) != node:
            raise GraphError(
                f"node {node} is not owned by shard {self.shard_id}"
            )
        return pos

    def halo_owner_of(self, node: int) -> int:
        pos = int(np.searchsorted(self.halo, node))
        if pos >= len(self.halo) or int(self.halo[pos]) != node:
            raise GraphError(
                f"node {node} is neither owned by nor a halo of shard {self.shard_id}"
            )
        return int(self.halo_owner[pos])

    def owner_of(self, node: int) -> int:
        """Owning shard of any node visible to this shard."""
        if self.is_owned(node):
            return self.shard_id
        return self.halo_owner_of(node)

    def to_local(self, nodes: np.ndarray) -> np.ndarray:
        return _to_local(self.owned, self.halo, nodes)

    def out_row(self, node: int) -> tuple[np.ndarray, np.ndarray]:
        """Out-neighbours (global ids, parent row order) and weights."""
        pos = self.owned_position(node)
        window = slice(int(self.out_indptr[pos]), int(self.out_indptr[pos + 1]))
        return self.global_ids[self.out_local[window]], self.out_weights[window]

    def save(self, path: str | os.PathLike) -> str:
        """Persist this shard in ``write_checksummed`` framing."""
        header = {
            "version": 1,
            "byteorder": sys.byteorder,
            "shard_id": self.shard_id,
            "num_shards": self.num_shards,
            "num_global_nodes": self.num_global_nodes,
            "directed": self.directed,
            "num_owned": self.num_owned,
            "num_halo": self.num_halo,
            "num_out_arcs": int(len(self.out_local)),
            "num_in_arcs": int(len(self.in_local)),
        }
        parts = [json.dumps(header, sort_keys=True).encode("utf-8"), b"\n"]
        for arr, dtype in self._array_layout():
            parts.append(np.ascontiguousarray(arr, dtype=dtype).tobytes())
        return write_checksummed(path, SHARD_MAGIC, b"".join(parts))

    def _array_layout(self):
        return (
            (self.owned, np.int64),
            (self.halo, np.int64),
            (self.halo_owner, np.int64),
            (self.out_indptr, np.int64),
            (self.out_local, np.int64),
            (self.out_weights, np.float64),
            (self.in_indptr, np.int64),
            (self.in_local, np.int64),
            (self.in_weights, np.float64),
        )


def load_shard(path: str | os.PathLike) -> GraphShard:
    """Load one shard file, streaming-verified then memory-mapped."""
    path = os.fspath(path)
    try:
        mapped, offset, size = map_checksummed(path, SHARD_MAGIC, kind="graph shard")
    except Exception as error:  # TrainingError from the framing layer
        raise GraphError(str(error)) from error
    newline = mapped.find(b"\n", offset, offset + size)
    if newline < 0:
        raise GraphError(f"{path} has a malformed graph shard header")
    try:
        header = json.loads(mapped[offset:newline].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise GraphError(f"{path} has a malformed graph shard header") from error
    if header.get("byteorder") != sys.byteorder:
        raise GraphError(
            f"{path} was written on a {header.get('byteorder')}-endian machine; "
            f"this machine is {sys.byteorder}-endian"
        )
    num_owned = int(header["num_owned"])
    num_halo = int(header["num_halo"])
    num_out = int(header["num_out_arcs"])
    num_in = int(header["num_in_arcs"])

    cursor = newline + 1
    views = []
    layout = (
        (num_owned, np.int64),
        (num_halo, np.int64),
        (num_halo, np.int64),
        (num_owned + 1, np.int64),
        (num_out, np.int64),
        (num_out, np.float64),
        (num_owned + 1, np.int64),
        (num_in, np.int64),
        (num_in, np.float64),
    )
    for count, dtype in layout:
        nbytes = count * np.dtype(dtype).itemsize
        if cursor + nbytes > offset + size:
            raise GraphError(
                f"{path} is truncated: graph shard payload shorter than its header promises"
            )
        view = np.frombuffer(mapped, dtype=dtype, count=count, offset=cursor)
        views.append(view)
        cursor += nbytes
    if cursor != offset + size:
        raise GraphError(
            f"{path} graph shard payload holds {offset + size - cursor} trailing bytes"
        )
    return GraphShard(
        int(header["shard_id"]),
        int(header["num_shards"]),
        int(header["num_global_nodes"]),
        bool(header["directed"]),
        *views,
        mapped=mapped,
    )


@dataclass
class ShardSet:
    """A full edge-cut sharding of one graph (halo mode — lossless)."""

    shards: list[GraphShard]
    assignment: np.ndarray
    num_nodes: int
    num_arcs: int
    directed: bool
    method: str

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def owner_of(self, node: int) -> int:
        return int(self.assignment[node])

    def stats(self) -> PartitionStats:
        """Edge-cut statistics; in halo mode cut arcs are kept, not dropped."""
        sizes = np.bincount(self.assignment, minlength=self.num_shards)
        cut = 0
        for shard in self.shards:
            cut += int(np.count_nonzero(shard.out_local >= shard.num_owned))
        return PartitionStats(
            num_parts=self.num_shards,
            method=self.method,
            sizes=tuple(int(s) for s in sizes),
            cut_arcs=cut,
            total_arcs=self.num_arcs,
        )

    def reassemble(self) -> Graph:
        """Rebuild the original graph bit-exactly from the shards."""
        num_nodes = self.num_nodes

        def rebuild(kind: str):
            counts = np.zeros(num_nodes, dtype=np.int64)
            for shard in self.shards:
                indptr = shard.out_indptr if kind == "out" else shard.in_indptr
                counts[shard.owned] = np.diff(indptr)
            indptr_global = np.zeros(num_nodes + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr_global[1:])
            total = int(indptr_global[-1])
            indices = np.empty(total, dtype=np.int64)
            weights = np.empty(total, dtype=np.float64)
            for shard in self.shards:
                if kind == "out":
                    indptr, local, shard_weights = (
                        shard.out_indptr,
                        shard.out_local,
                        shard.out_weights,
                    )
                else:
                    indptr, local, shard_weights = (
                        shard.in_indptr,
                        shard.in_local,
                        shard.in_weights,
                    )
                lengths = np.diff(indptr)
                dest = np.repeat(
                    indptr_global[shard.owned] - indptr[:-1], lengths
                ) + np.arange(int(indptr[-1]), dtype=np.int64)
                indices[dest] = shard.global_ids[local]
                weights[dest] = shard_weights
            return indptr_global, indices, weights

        return Graph.from_csr(
            num_nodes, rebuild("out"), rebuild("in"), directed=self.directed
        )

    def save(self, directory: str | os.PathLike) -> str:
        """Persist the shard set to ``directory`` (created if needed)."""
        directory = os.fspath(directory)
        os.makedirs(directory, exist_ok=True)
        names = []
        for shard in self.shards:
            name = _shard_filename(shard.shard_id)
            shard.save(os.path.join(directory, name))
            names.append(name)
        header = {
            "version": 1,
            "byteorder": sys.byteorder,
            "num_shards": self.num_shards,
            "num_nodes": self.num_nodes,
            "num_arcs": self.num_arcs,
            "directed": self.directed,
            "method": self.method,
            "shards": names,
        }
        payload = json.dumps(header, sort_keys=True).encode("utf-8") + b"\n"
        payload += np.ascontiguousarray(self.assignment, dtype=np.int64).tobytes()
        write_checksummed(os.path.join(directory, SHARDSET_INDEX), SHARDSET_MAGIC, payload)
        return directory

    @classmethod
    def load(cls, directory: str | os.PathLike) -> "ShardSet":
        """Load a saved shard set: the index, then every shard mapped."""
        directory = os.fspath(directory)
        index_path = os.path.join(directory, SHARDSET_INDEX)
        try:
            payload = read_checksummed(index_path, SHARDSET_MAGIC, kind="shard set index")
        except Exception as error:
            raise GraphError(str(error)) from error
        newline = payload.find(b"\n")
        if newline < 0:
            raise GraphError(f"{index_path} has a malformed shard set index header")
        try:
            header = json.loads(payload[:newline].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise GraphError(
                f"{index_path} has a malformed shard set index header"
            ) from error
        if header.get("byteorder") != sys.byteorder:
            raise GraphError(
                f"{index_path} was written on a {header.get('byteorder')}-endian "
                f"machine; this machine is {sys.byteorder}-endian"
            )
        num_nodes = int(header["num_nodes"])
        assignment = np.frombuffer(payload, dtype=np.int64, count=num_nodes, offset=newline + 1)
        if len(assignment) != num_nodes:
            raise GraphError(f"{index_path} is truncated: assignment array incomplete")
        shards: list[GraphShard] = []
        for name in header["shards"]:
            shard = load_shard(os.path.join(directory, name))
            if shard.num_global_nodes != num_nodes:
                raise GraphError(
                    f"shard {name} disagrees with the shard set index about "
                    "the global node count"
                )
            shards.append(shard)
        return cls(
            shards=shards,
            assignment=assignment,
            num_nodes=num_nodes,
            num_arcs=int(header["num_arcs"]),
            directed=bool(header["directed"]),
            method=str(header.get("method", "unknown")),
        )


def build_shard_set(
    graph: Graph,
    num_shards: int,
    *,
    method: str = "bfs",
    rng: int | np.random.Generator | None = None,
    assignment: np.ndarray | None = None,
    obs=None,
) -> ShardSet:
    """Shard ``graph`` into ``num_shards`` edge-cut partitions with halos.

    Unlike :func:`repro.graphs.partition_graph`, no arc is dropped: each
    shard keeps the full out/in rows of its owned nodes, with cross-shard
    endpoints stored as halo ghosts.  ``assignment`` lets callers reuse a
    precomputed partition; otherwise
    :func:`repro.graphs.partition.partition_assignment` runs with the given
    ``method``/``rng``.
    """
    if assignment is None:
        assignment = partition_assignment(graph, num_shards, method=method, rng=rng)
    else:
        assignment = np.asarray(assignment, dtype=np.int64)
        if assignment.shape != (graph.num_nodes,):
            raise GraphError("assignment must have one entry per node")
        if assignment.size and (assignment.min() < 0 or assignment.max() >= num_shards):
            raise GraphError("assignment references shards outside range")

    out_indptr, out_indices, out_weights = graph.out_csr()
    in_indptr, in_indices, in_weights = graph.in_csr()

    shards: list[GraphShard] = []
    for shard_id in range(num_shards):
        owned = np.flatnonzero(assignment == shard_id)
        o_indptr, o_flat = _row_gather(out_indptr, owned)
        o_targets = out_indices[o_flat]
        o_weights = out_weights[o_flat]
        i_indptr, i_flat = _row_gather(in_indptr, owned)
        i_sources = in_indices[i_flat]
        i_weights = in_weights[i_flat]
        if len(o_targets) or len(i_sources):
            neighbours = np.unique(np.concatenate([o_targets, i_sources]))
            halo = neighbours[assignment[neighbours] != shard_id]
        else:
            halo = np.empty(0, dtype=np.int64)
        halo_owner = assignment[halo]
        shards.append(
            GraphShard(
                shard_id,
                num_shards,
                graph.num_nodes,
                graph.is_directed,
                owned,
                halo,
                halo_owner,
                o_indptr,
                _to_local(owned, halo, o_targets),
                o_weights,
                i_indptr,
                _to_local(owned, halo, i_sources),
                i_weights,
            )
        )
    shard_set = ShardSet(
        shards=shards,
        assignment=assignment,
        num_nodes=graph.num_nodes,
        num_arcs=int(len(out_indices)),
        directed=graph.is_directed,
        method=method,
    )
    if obs is not None:
        stats = shard_set.stats()
        obs.event("sharding.partition", halo_mode=True, **stats.as_dict())
    return shard_set


def whole_graph_shard_set(graph: Graph) -> ShardSet:
    """``graph`` as one shard that owns every node: no halo, local ids equal
    global ids, and the shard's CSR arrays *are* the graph's — no copy and
    no partition pass.  This is how the flat samplers run on the shard
    coordinator."""
    num_nodes = graph.num_nodes
    empty = np.empty(0, dtype=np.int64)
    shard = GraphShard(
        0,
        1,
        num_nodes,
        graph.is_directed,
        np.arange(num_nodes, dtype=np.int64),
        empty,
        empty,
        *graph.out_csr(),
        *graph.in_csr(),
    )
    return ShardSet(
        shards=[shard],
        assignment=np.zeros(num_nodes, dtype=np.int64),
        num_nodes=num_nodes,
        num_arcs=graph.num_edges,
        directed=graph.is_directed,
        method="whole",
    )
