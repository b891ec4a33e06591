"""Append-only on-disk subgraph store with mmap-backed zero-copy reads.

The pool ``G_sub`` no longer has to fit in RAM: samplers spill subgraphs
straight to disk through :class:`SubgraphStoreWriter`, and training reads
them back through :class:`SubgraphStore`, a :class:`~repro.sampling.
container.SubgraphSource` whose memory footprint is flat in the number of
stored subgraphs (only the pages a batch touches are resident).

A pipeline run spills into at most one store.  The sampling coordinator
emits accepted subgraphs in global start order for every shard count, so
one writer receives exactly the sequence the serial sampler produces.

Layout — a store is a directory:

``shard-00000.bin`` …
    Fixed-layout binary shards in the shared ``write_checksummed`` framing
    (``REPRO-SGSHARD-v1 sha256=<hex> size=<bytes>\\n`` + payload).  The
    payload is a concatenation of records; each record is the raw
    little-endian bytes of, in order::

        node_map    int64[n]
        out_indptr  int64[n+1]
        out_indices int64[E]
        out_weights float64[E]
        in_indptr   int64[n+1]
        in_indices  int64[E]
        in_weights  float64[E]

    ``node_map`` comes first on purpose: the occurrence audit
    (``occurrence_counts``) reads only the first ``8·n`` bytes of every
    record, so auditing a store touches a small fraction of its pages.

``index.bin``
    ``REPRO-SGIDX-v1`` framing around a JSON header line (version,
    byte order, shard names + payload sizes, optional metadata) plus an
    ``int64[N, 5]`` table of ``(shard, offset, num_nodes, num_arcs,
    directed)`` per record.  Offsets are relative to the shard payload, so
    every record slice is computable without reading the shard.

Reads verify the index checksum eagerly and every shard checksum by
*streaming* (1 MiB chunks — never the whole file in memory), then mmap the
shards read-only; ``__getitem__`` wraps the mapped pages in
``np.frombuffer`` views and rebuilds the :class:`~repro.graphs.graph.
Graph` via ``Graph.from_csr`` without copying the CSR arrays.  Truncated,
bit-flipped, or misframed files are rejected with a clean
:class:`~repro.errors.SamplingError`.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import sys
from typing import Iterator

import numpy as np

from repro.core.checkpoint import read_checksummed, write_checksummed
from repro.errors import SamplingError, TrainingError
from repro.graphs.graph import Graph
from repro.sampling.container import (
    Subgraph,
    SubgraphContainer,
    accumulate_occurrence_counts,
)

SHARD_MAGIC = b"REPRO-SGSHARD-v1"
INDEX_MAGIC = b"REPRO-SGIDX-v1"
INDEX_NAME = "index.bin"

#: Default shard payload target; bounds the writer's buffered bytes, so it
#: is also the writer's peak memory regardless of how many subgraphs spill.
DEFAULT_SHARD_BYTES = 16 * 1024 * 1024

_TABLE_COLUMNS = 5  # (shard, offset, num_nodes, num_arcs, directed)

__all__ = [
    "SubgraphStore",
    "SubgraphStoreWriter",
    "DEFAULT_SHARD_BYTES",
]


def _shard_name(shard_id: int) -> str:
    return f"shard-{shard_id:05d}.bin"


def _encode_record(subgraph: Subgraph) -> tuple[bytes, int, int]:
    """Record bytes plus ``(num_nodes, num_arcs)`` for the index row."""
    graph = subgraph.graph
    out_indptr, out_indices, out_weights = graph.out_csr()
    in_indptr, in_indices, in_weights = graph.in_csr()
    parts = (
        np.ascontiguousarray(subgraph.node_map, dtype=np.int64),
        np.ascontiguousarray(out_indptr, dtype=np.int64),
        np.ascontiguousarray(out_indices, dtype=np.int64),
        np.ascontiguousarray(out_weights, dtype=np.float64),
        np.ascontiguousarray(in_indptr, dtype=np.int64),
        np.ascontiguousarray(in_indices, dtype=np.int64),
        np.ascontiguousarray(in_weights, dtype=np.float64),
    )
    blob = b"".join(part.tobytes() for part in parts)
    return blob, graph.num_nodes, graph.num_edges


def record_nbytes(num_nodes: int, num_arcs: int) -> int:
    """Size of one record: every field is an 8-byte scalar."""
    return 8 * (3 * num_nodes + 2 + 4 * num_arcs)


class SubgraphStoreWriter:
    """Append-only writer; spill target for the samplers' emit path.

    Buffers at most ~``shard_bytes`` of encoded records, flushing each full
    shard atomically through ``write_checksummed`` — so writer memory is
    bounded by the shard size, not the pool size, and a crash mid-write
    never leaves a torn shard behind (the index is written last, by
    :meth:`finalize`; without it the directory is not a readable store).
    """

    def __init__(
        self,
        path: str | os.PathLike,
        *,
        shard_bytes: int = DEFAULT_SHARD_BYTES,
        meta: dict | None = None,
    ) -> None:
        if shard_bytes < 1:
            raise SamplingError(f"shard_bytes must be >= 1, got {shard_bytes}")
        self._path = os.fspath(path)
        if os.path.exists(os.path.join(self._path, INDEX_NAME)):
            raise SamplingError(
                f"{self._path} already holds a finalized subgraph store; "
                "refusing to append to it (stores are immutable once indexed)"
            )
        os.makedirs(self._path, exist_ok=True)
        self._shard_bytes = int(shard_bytes)
        self._meta = dict(meta or {})
        self._pending: list[bytes] = []
        self._pending_bytes = 0
        self._shards: list[dict] = []  # {"name", "payload_size"}
        self._rows: list[tuple[int, int, int, int, int]] = []
        self._finalized = False

    @property
    def path(self) -> str:
        return self._path

    def __len__(self) -> int:
        return len(self._rows)

    def add(self, subgraph: Subgraph) -> None:
        """Append one subgraph (samplers call this exactly like
        :meth:`SubgraphContainer.add`)."""
        if self._finalized:
            raise SamplingError("store writer is finalized; cannot add")
        blob, num_nodes, num_arcs = _encode_record(subgraph)
        self._rows.append(
            (
                len(self._shards),
                self._pending_bytes,
                num_nodes,
                num_arcs,
                int(subgraph.graph.is_directed),
            )
        )
        self._pending.append(blob)
        self._pending_bytes += len(blob)
        if self._pending_bytes >= self._shard_bytes:
            self._flush_shard()

    def extend(self, other: SubgraphContainer) -> None:
        """Append every subgraph of an in-memory container."""
        for subgraph in other:
            self.add(subgraph)

    def _flush_shard(self) -> None:
        if not self._pending:
            return
        name = _shard_name(len(self._shards))
        payload = b"".join(self._pending)
        write_checksummed(os.path.join(self._path, name), SHARD_MAGIC, payload)
        self._shards.append({"name": name, "payload_size": len(payload)})
        self._pending = []
        self._pending_bytes = 0

    def finalize(self) -> "SubgraphStore":
        """Flush the tail shard, write the index, and open the store."""
        if self._finalized:
            raise SamplingError("store writer is already finalized")
        self._flush_shard()
        header = {
            "version": 1,
            "byteorder": sys.byteorder,
            "num_records": len(self._rows),
            "shards": self._shards,
            "meta": self._meta,
        }
        table = np.asarray(self._rows, dtype=np.int64).reshape(
            len(self._rows), _TABLE_COLUMNS
        )
        payload = json.dumps(header).encode("utf-8") + b"\n" + table.tobytes()
        write_checksummed(os.path.join(self._path, INDEX_NAME), INDEX_MAGIC, payload)
        self._finalized = True
        return SubgraphStore(self._path)

    def abort(self) -> None:
        """Drop buffered records (already-flushed shards stay on disk but
        the directory is unreadable as a store without an index)."""
        self._pending = []
        self._pending_bytes = 0
        self._finalized = True


def _verify_and_map_shard(path: str, expected_payload: int) -> tuple[mmap.mmap, int]:
    """Stream-verify one shard's checksum, then mmap it read-only.

    Unlike ``read_checksummed`` this never holds the file in memory: the
    SHA-256 is fed 1 MiB at a time, keeping verification RSS flat no matter
    how large the shard is.  Returns ``(map, payload_offset)``.
    """
    try:
        handle = open(path, "rb")
    except FileNotFoundError:
        raise SamplingError(f"subgraph store shard missing: {path}") from None
    except OSError as error:
        raise SamplingError(f"cannot read subgraph store shard {path}: {error}") from error
    with handle:
        head = handle.read(len(SHARD_MAGIC) + 256)
        newline = head.find(b"\n")
        if not head.startswith(SHARD_MAGIC + b" ") or newline < 0:
            raise SamplingError(f"{path} is not a subgraph store shard")
        try:
            fields = dict(
                part.split(b"=", 1)
                for part in head[len(SHARD_MAGIC) + 1 : newline].split(b" ")
            )
            expected_digest = fields[b"sha256"].decode("ascii")
            expected_size = int(fields[b"size"])
        except (KeyError, ValueError) as error:
            raise SamplingError(f"{path} has a malformed shard header") from error
        if expected_size != expected_payload:
            raise SamplingError(
                f"{path} disagrees with the store index: index records "
                f"{expected_payload} payload bytes, shard header {expected_size}"
            )
        payload_offset = newline + 1
        handle.seek(payload_offset)
        digest = hashlib.sha256()
        total = 0
        while True:
            chunk = handle.read(1 << 20)
            if not chunk:
                break
            digest.update(chunk)
            total += len(chunk)
        if total != expected_size:
            raise SamplingError(
                f"{path} is truncated: header promises {expected_size} payload "
                f"bytes, file holds {total}"
            )
        if digest.hexdigest() != expected_digest:
            raise SamplingError(
                f"{path} failed its SHA-256 checksum; the shard is corrupt"
            )
        mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    return mapped, payload_offset


class SubgraphStore:
    """Read side: a :class:`SubgraphSource` over mmap-backed shards.

    ``__getitem__`` materialises a :class:`Subgraph` whose CSR arrays are
    zero-copy ``np.frombuffer`` views into the mapped shard (read-only;
    ``Graph.from_csr`` adopts them without copying), so a training batch
    touches only its own records' pages and the OS reclaims them under
    pressure.  The occurrence audit reads just the leading ``node_map``
    bytes of each record.  Pickles by path (workers re-open and re-verify),
    and is safe to close explicitly or via ``with``.
    """

    #: Records are materialised on demand from disk; see ``SubgraphSource``.
    in_memory = False

    def __init__(self, path: str | os.PathLike) -> None:
        self._path = os.fspath(path)
        index_path = os.path.join(self._path, INDEX_NAME)
        try:
            payload = read_checksummed(index_path, INDEX_MAGIC, kind="subgraph store index")
        except TrainingError as error:
            raise SamplingError(str(error)) from error
        newline = payload.find(b"\n")
        if newline < 0:
            raise SamplingError(f"{index_path} has no header line")
        try:
            header = json.loads(payload[:newline].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise SamplingError(f"{index_path} has a malformed JSON header") from error
        if header.get("version") != 1:
            raise SamplingError(
                f"{index_path} has unsupported store version {header.get('version')!r}"
            )
        if header.get("byteorder") != sys.byteorder:
            raise SamplingError(
                f"{index_path} was written on a {header.get('byteorder')}-endian "
                f"machine; this machine is {sys.byteorder}-endian"
            )
        num_records = int(header.get("num_records", -1))
        table_bytes = payload[newline + 1 :]
        expected = num_records * _TABLE_COLUMNS * 8
        if num_records < 0 or len(table_bytes) != expected:
            raise SamplingError(
                f"{index_path} table is inconsistent: header promises "
                f"{num_records} records ({expected} bytes), payload holds "
                f"{len(table_bytes)}"
            )
        self._table = np.frombuffer(table_bytes, dtype=np.int64).reshape(
            num_records, _TABLE_COLUMNS
        )
        self.meta = dict(header.get("meta", {}))
        self._mmaps: list[mmap.mmap] = []
        self._payload_offsets: list[int] = []
        try:
            for shard in header.get("shards", ()):
                mapped, offset = _verify_and_map_shard(
                    os.path.join(self._path, str(shard["name"])),
                    int(shard["payload_size"]),
                )
                self._mmaps.append(mapped)
                self._payload_offsets.append(offset)
        except Exception:
            self.close()
            raise
        self._validate_table()
        self._closed = False

    def _validate_table(self) -> None:
        """Reject index rows pointing outside their shard's payload."""
        for row in range(len(self._table)):
            shard, offset, num_nodes, num_arcs, _ = (
                int(v) for v in self._table[row]
            )
            if shard < 0 or shard >= len(self._mmaps):
                raise SamplingError(
                    f"store index row {row} names missing shard {shard}"
                )
            end = offset + record_nbytes(num_nodes, num_arcs)
            payload_size = len(self._mmaps[shard]) - self._payload_offsets[shard]
            if offset < 0 or end > payload_size:
                raise SamplingError(
                    f"store index row {row} overruns shard {shard} "
                    f"({end} > {payload_size})"
                )

    # ------------------------------------------------------------------ #
    @property
    def path(self) -> str:
        return self._path

    def __len__(self) -> int:
        return len(self._table)

    def _check_open(self) -> None:
        if getattr(self, "_closed", True):
            raise SamplingError(f"subgraph store {self._path} is closed")

    def _node_map_view(self, index: int) -> np.ndarray:
        shard, offset, num_nodes, _, _ = (int(v) for v in self._table[index])
        start = self._payload_offsets[shard] + offset
        return np.frombuffer(self._mmaps[shard], np.int64, num_nodes, start)

    def __getitem__(self, index: int) -> Subgraph:
        self._check_open()
        if index < 0:
            index += len(self._table)
        if not 0 <= index < len(self._table):
            raise IndexError(index)
        shard, offset, num_nodes, num_arcs, directed = (
            int(v) for v in self._table[index]
        )
        mapped = self._mmaps[shard]
        pos = self._payload_offsets[shard] + offset

        def take(count: int, dtype) -> np.ndarray:
            nonlocal pos
            view = np.frombuffer(mapped, dtype, count, pos)
            pos += 8 * count
            return view

        node_map = take(num_nodes, np.int64)
        out_indptr = take(num_nodes + 1, np.int64)
        out_indices = take(num_arcs, np.int64)
        out_weights = take(num_arcs, np.float64)
        in_indptr = take(num_nodes + 1, np.int64)
        in_indices = take(num_arcs, np.int64)
        in_weights = take(num_arcs, np.float64)
        graph = Graph.from_csr(
            num_nodes,
            (out_indptr, out_indices, out_weights),
            (in_indptr, in_indices, in_weights),
            directed=bool(directed),
        )
        return Subgraph(graph, node_map)

    def __iter__(self) -> Iterator[Subgraph]:
        for index in range(len(self._table)):
            yield self[index]

    # ------------------------------------------------------------------ #
    # Sensitivity auditing — node_map-only reads, never the full records.
    # ------------------------------------------------------------------ #
    def occurrence_counts(self, num_original_nodes: int) -> np.ndarray:
        """Per-node occurrence counts, streamed from the node_map prefixes."""
        self._check_open()
        return accumulate_occurrence_counts(
            (self._node_map_view(index) for index in range(len(self._table))),
            num_original_nodes,
        )

    def max_occurrence(self, num_original_nodes: int) -> int:
        if len(self._table) == 0:
            return 0
        return int(self.occurrence_counts(num_original_nodes).max())

    def coverage(self, num_original_nodes: int) -> float:
        if num_original_nodes == 0:
            return 0.0
        counts = self.occurrence_counts(num_original_nodes)
        return float((counts > 0).mean())

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Unmap every shard (safe to call repeatedly)."""
        self._closed = True
        for mapped in getattr(self, "_mmaps", []):
            try:
                mapped.close()
            except (BufferError, OSError):
                # Outstanding frombuffer views pin the map; the OS reclaims
                # it when they die.
                pass
        self._mmaps = []

    def __enter__(self) -> "SubgraphStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # Pickle by path: spawn/fork workers re-open (and re-verify) the store
    # rather than shipping mapped pages through pickle.
    def __getstate__(self) -> dict:
        return {"path": self._path}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["path"])

    def __repr__(self) -> str:
        return (
            f"SubgraphStore(path={self._path!r}, num_subgraphs={len(self._table)}, "
            f"shards={len(self._payload_offsets)})"
        )

