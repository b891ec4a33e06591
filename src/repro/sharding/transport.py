"""Pluggable shard channels: in-process calls or TCP frames.

The sharded coordinator speaks one request shape — ``(kind, {shard_id:
payload})`` → ``{shard_id: response}`` — and a :class:`ShardTransport`
decides how those requests reach the shard hosts:

* :class:`LocalTransport` — hosts live in the coordinator process; a
  request is a direct method call (one worker, and the flat samplers).
* :class:`TcpTransport`   — hosts live behind socket servers (run with
  ``repro shard-host``, or spawned over loopback, one per worker), on
  this machine or any other, speaking a
  length-prefixed checksummed frame protocol that ships numpy payloads as
  raw buffers: **no pickle on the hot path**, ``np.frombuffer`` zero-copy
  views on receive.

Every transport is a pure channel: the bytes on the wire never influence
the draws, so both produce bit-identical containers, frequency
counts, and θ-projections for a fixed seed — the property the sharding
differential tests enforce per transport.

Frame format (``write_checksummed`` conventions, one frame per message)::

    REPRO-FRAME-v1 sha256=<hex> size=<payload bytes>\\n
    <payload>

The payload is a self-describing tagged binary encoding (``pack_message``
/ ``unpack_message``) covering builtins, numpy arrays (dtype + shape +
raw buffer), :class:`~repro.sharding.walker.WalkParams`, RNG generators,
and — the hot path — **columnar walk batches**: all
:class:`~repro.sharding.walker.WalkTask`\\ s bound for one shard coalesce
into a handful of flat int64/uint64 arrays inside a single frame, so a
frontier-exchange round costs one frame per addressed host regardless of
how many walks it carries.  The codec has no pickle fallback at all: an
unsupported type raises :class:`~repro.errors.TransportError`, which is
what lets the serialization unit tests *prove* the no-pickle property.

Scatter/gather pipelining: :meth:`ShardTransport.scatter` enqueues frames
and returns immediately; a ``selectors``-driven pump interleaves flushing
outbound frames with draining inbound ones, so shard *i*'s outbound
frontier batch is serialized while shard *j*'s reply is still in flight.
:meth:`ShardTransport.poll` hands back whichever responses have arrived,
letting the coordinator forward walks onward without waiting for the
slowest shard of the round.
"""

from __future__ import annotations

import hashlib
import os
import selectors
import socket
import struct
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.errors import TransportError
from repro.obs import ensure_obs
from repro.sharding.walker import WalkParams, WalkTask
from repro.utils.rng import generator_from_state, serialize_rng_state

FRAME_MAGIC = b"REPRO-FRAME-v1"
PROTOCOL_VERSION = 1
DEFAULT_TIMEOUT = 120.0
_MAX_HEADER_BYTES = 160
_RECV_CHUNK = 1 << 18

__all__ = [
    "DEFAULT_TIMEOUT",
    "FRAME_MAGIC",
    "LocalTransport",
    "ShardHostServer",
    "ShardTransport",
    "TcpTransport",
    "TransportStats",
    "encode_frame",
    "pack_message",
    "parse_host_list",
    "resolve_transport",
    "unpack_message",
]


# --------------------------------------------------------------------------- #
# tagged binary codec (no pickle, ever)
# --------------------------------------------------------------------------- #
_T_NONE = b"\x00"
_T_FALSE = b"\x01"
_T_TRUE = b"\x02"
_T_INT = b"\x03"
_T_FLOAT = b"\x04"
_T_STR = b"\x05"
_T_BYTES = b"\x06"
_T_LIST = b"\x07"
_T_TUPLE = b"\x08"
_T_DICT = b"\x09"
_T_SET = b"\x0a"
_T_FROZENSET = b"\x0b"
_T_NDARRAY = b"\x0c"
_T_NDREF = b"\x0d"
_T_WALK_BATCH = b"\x0e"
_T_WALK_PARAMS = b"\x0f"
_T_GENERATOR = b"\x10"

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_F64 = struct.Struct("<d")
_MASK64 = (1 << 64) - 1


def _pack_int(value: int, out: bytearray) -> None:
    raw = value.to_bytes((value.bit_length() + 8) // 8 or 1, "little", signed=True)
    out += _T_INT
    out += _U32.pack(len(raw))
    out += raw


def _pack_ndarray(array: np.ndarray, out: bytearray, seen: dict) -> None:
    # ``seen`` pins each packed array alive (id-keyed entries hold the
    # object), so a freed temporary can never alias a later id().
    marker = id(array)
    entry = seen.get(marker)
    if entry is not None:
        # The same array object repeated inside one message (e.g. a
        # snapshot broadcast addressed to every shard a host owns) is
        # encoded once and back-referenced after that.
        out += _T_NDREF
        out += _U32.pack(entry[0])
        return
    seen[marker] = (len(seen), array)
    contiguous = np.ascontiguousarray(array)
    dtype = contiguous.dtype.str.encode("ascii")
    out += _T_NDARRAY
    out += bytes((len(dtype),))
    out += dtype
    out += bytes((contiguous.ndim,))
    for extent in contiguous.shape:
        out += _U64.pack(extent)
    out += _U64.pack(contiguous.nbytes)
    # Flattened first: memoryview cannot cast an N-d view with a zero extent.
    out += memoryview(contiguous.reshape(-1)).cast("B")


def _pack_walk_batch(tasks: list, out: bytearray, seen: dict) -> None:
    """Columnar encoding of a coalesced walk batch: flat arrays only."""
    count = len(tasks)
    fixed = np.empty((count, 8), dtype=np.int64)
    rng_words = np.empty((count, 6), dtype=np.uint64)
    visited_indptr = np.zeros(count + 1, dtype=np.int64)
    allowed_indptr = np.zeros(count + 1, dtype=np.int64)
    visited_parts: list[np.ndarray] = []
    allowed_parts: list[np.ndarray] = []
    for index, task in enumerate(tasks):
        generator = task.generator
        if isinstance(generator, _LazyGenerator) and generator.pristine:
            # Relay fast path: the walk was decoded and never advanced
            # here, so its wire words are still its exact state.
            rng_words[index] = generator.words
        else:
            state = generator.bit_generator.state
            words = state["state"]
            raw_state = int(words["state"])
            raw_inc = int(words["inc"])
            rng_words[index] = (
                raw_state & _MASK64,
                raw_state >> 64,
                raw_inc & _MASK64,
                raw_inc >> 64,
                int(state["has_uint32"]),
                int(state["uinteger"]),
            )
        fixed[index] = (
            task.key,
            task.start,
            task.start_owner,
            task.current,
            task.steps,
            int(task.restart_drawn),
            task.forwards,
            0 if task.allowed is None else 1,
        )
        visited = np.asarray(task.visited, dtype=np.int64)
        visited_parts.append(visited)
        visited_indptr[index + 1] = visited_indptr[index] + len(visited)
        if task.allowed is None:
            allowed_indptr[index + 1] = allowed_indptr[index]
        else:
            allowed = np.fromiter(task.allowed, dtype=np.int64, count=len(task.allowed))
            allowed_parts.append(allowed)
            allowed_indptr[index + 1] = allowed_indptr[index] + len(allowed)
    empty = np.empty(0, dtype=np.int64)
    out += _T_WALK_BATCH
    out += _U32.pack(count)
    for column in (
        fixed,
        rng_words,
        visited_indptr,
        np.concatenate(visited_parts) if visited_parts else empty,
        allowed_indptr,
        np.concatenate(allowed_parts) if allowed_parts else empty,
    ):
        _pack_ndarray(column, out, seen)


def _pack(obj, out: bytearray, seen: dict) -> None:
    if obj is None:
        out += _T_NONE
    elif obj is True:
        out += _T_TRUE
    elif obj is False:
        out += _T_FALSE
    elif isinstance(obj, (int, np.integer)):
        _pack_int(int(obj), out)
    elif isinstance(obj, (float, np.floating)):
        out += _T_FLOAT
        out += _F64.pack(float(obj))
    elif isinstance(obj, str):
        raw = obj.encode("utf-8")
        out += _T_STR
        out += _U32.pack(len(raw))
        out += raw
    elif isinstance(obj, (bytes, bytearray, memoryview)):
        raw = bytes(obj)
        out += _T_BYTES
        out += _U64.pack(len(raw))
        out += raw
    elif isinstance(obj, np.ndarray):
        _pack_ndarray(obj, out, seen)
    elif isinstance(obj, np.bool_):
        out += _T_TRUE if bool(obj) else _T_FALSE
    elif isinstance(obj, list):
        if obj and all(isinstance(item, WalkTask) for item in obj):
            _pack_walk_batch(obj, out, seen)
            return
        out += _T_LIST
        out += _U32.pack(len(obj))
        for item in obj:
            _pack(item, out, seen)
    elif isinstance(obj, tuple):
        out += _T_TUPLE
        out += _U32.pack(len(obj))
        for item in obj:
            _pack(item, out, seen)
    elif isinstance(obj, dict):
        out += _T_DICT
        out += _U32.pack(len(obj))
        for key, value in obj.items():
            _pack(key, out, seen)
            _pack(value, out, seen)
    elif isinstance(obj, (set, frozenset)):
        out += _T_FROZENSET if isinstance(obj, frozenset) else _T_SET
        out += _U32.pack(len(obj))
        for item in sorted(obj):
            _pack(item, out, seen)
    elif isinstance(obj, WalkParams):
        out += _T_WALK_PARAMS
        _pack(
            (
                obj.kind,
                obj.target_size,
                obj.walk_length,
                obj.restart_probability,
                obj.direction,
                obj.threshold,
                obj.decay,
                obj.use_projected,
            ),
            out,
            seen,
        )
    elif isinstance(obj, np.random.Generator):
        out += _T_GENERATOR
        _pack(serialize_rng_state(obj), out, seen)
    else:
        raise TransportError(
            f"cannot frame {type(obj).__name__!r} without pickle; shard "
            "frames carry builtins, numpy arrays, walk batches, and RNG "
            "states only"
        )


def pack_message(obj) -> bytes:
    """Encode ``obj`` into the transport's tagged binary payload.

    Raises:
        TransportError: for any type the codec does not model — there is
            deliberately no pickle fallback.
    """
    out = bytearray()
    _pack(obj, out, {})
    return bytes(out)


class _Cursor:
    """Offset cursor over one frame payload; arrays decode as views."""

    __slots__ = ("view", "offset", "arrays")

    def __init__(self, view: memoryview) -> None:
        self.view = view
        self.offset = 0
        self.arrays: list[np.ndarray] = []

    def take(self, count: int) -> memoryview:
        end = self.offset + count
        if end > len(self.view):
            raise TransportError(
                "frame payload is truncated: an encoded value runs past "
                "the end of the frame"
            )
        piece = self.view[self.offset : end]
        self.offset = end
        return piece


def _unpack_ndarray(cursor: _Cursor) -> np.ndarray:
    dtype_len = cursor.take(1)[0]
    dtype = np.dtype(bytes(cursor.take(dtype_len)).decode("ascii"))
    ndim = cursor.take(1)[0]
    shape = tuple(_U64.unpack(cursor.take(8))[0] for _ in range(ndim))
    nbytes = _U64.unpack(cursor.take(8))[0]
    raw = cursor.take(nbytes)
    count = nbytes // dtype.itemsize if dtype.itemsize else 0
    # Zero-copy: the array is a read-only view over the frame buffer.
    array = np.frombuffer(raw, dtype=dtype, count=count).reshape(shape)
    cursor.arrays.append(array)
    return array


def _generator_from_words(words: np.ndarray) -> np.random.Generator:
    bit_generator = np.random.PCG64(0)
    bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {
            "state": int(words[0]) | (int(words[1]) << 64),
            "inc": int(words[2]) | (int(words[3]) << 64),
        },
        "has_uint32": int(words[4]),
        "uinteger": int(words[5]),
    }
    return np.random.Generator(bit_generator)


class _LazyGenerator:
    """A decoded walk generator that materializes on first draw.

    Building a real :class:`numpy.random.Generator` (PCG64 seeding plus a
    state-dict round trip) is the single most expensive part of decoding a
    walk batch — and the coordinator, which relays every cross-shard
    forward, never draws from it.  Until something touches the stream this
    wrapper just carries the six raw state words, so a relay hop costs two
    array copies instead of two Generator constructions.  Any attribute
    access (``random``, ``integers``, ``bit_generator``, ...) materializes
    the true generator and proxies to it from then on.
    """

    __slots__ = ("words", "_generator")

    def __init__(self, words: np.ndarray) -> None:
        # Copy: the words row is a view over the frame buffer, and the
        # task may outlive the frame.
        self.words = np.array(words, dtype=np.uint64)
        self._generator = None

    def materialize(self) -> np.random.Generator:
        if self._generator is None:
            self._generator = _generator_from_words(self.words)
        return self._generator

    @property
    def pristine(self) -> bool:
        """True while no draw has happened: the words are still the state."""
        return self._generator is None

    def __getattr__(self, name):
        return getattr(self.materialize(), name)


def _unpack_walk_batch(cursor: _Cursor) -> list[WalkTask]:
    count = _U32.unpack(cursor.take(4))[0]
    # Each column went through _pack_ndarray, so it carries its own
    # NDARRAY/NDREF tag — decode through the generic path.
    fixed = _unpack(cursor)
    rng_words = _unpack(cursor)
    visited_indptr = _unpack(cursor)
    visited_flat = _unpack(cursor)
    allowed_indptr = _unpack(cursor)
    allowed_flat = _unpack(cursor)
    tasks: list[WalkTask] = []
    for index in range(count):
        row = fixed[index]
        allowed = None
        if row[7]:
            window = allowed_flat[allowed_indptr[index] : allowed_indptr[index + 1]]
            allowed = frozenset(window.tolist())
        tasks.append(
            WalkTask(
                key=int(row[0]),
                start=int(row[1]),
                start_owner=int(row[2]),
                current=int(row[3]),
                steps=int(row[4]),
                restart_drawn=bool(row[5]),
                visited=visited_flat[
                    visited_indptr[index] : visited_indptr[index + 1]
                ].tolist(),
                generator=_LazyGenerator(rng_words[index]),
                allowed=allowed,
                forwards=int(row[6]),
            )
        )
    return tasks


def _unpack(cursor: _Cursor):
    tag = bytes(cursor.take(1))
    if tag == _T_NONE:
        return None
    if tag == _T_TRUE:
        return True
    if tag == _T_FALSE:
        return False
    if tag == _T_INT:
        length = _U32.unpack(cursor.take(4))[0]
        return int.from_bytes(bytes(cursor.take(length)), "little", signed=True)
    if tag == _T_FLOAT:
        return _F64.unpack(cursor.take(8))[0]
    if tag == _T_STR:
        length = _U32.unpack(cursor.take(4))[0]
        return bytes(cursor.take(length)).decode("utf-8")
    if tag == _T_BYTES:
        length = _U64.unpack(cursor.take(8))[0]
        return bytes(cursor.take(length))
    if tag == _T_NDARRAY:
        return _unpack_ndarray(cursor)
    if tag == _T_NDREF:
        index = _U32.unpack(cursor.take(4))[0]
        try:
            return cursor.arrays[index]
        except IndexError:
            raise TransportError("frame references an array it never carried") from None
    if tag in (_T_LIST, _T_TUPLE, _T_SET, _T_FROZENSET):
        count = _U32.unpack(cursor.take(4))[0]
        items = [_unpack(cursor) for _ in range(count)]
        if tag == _T_LIST:
            return items
        if tag == _T_TUPLE:
            return tuple(items)
        if tag == _T_SET:
            return set(items)
        return frozenset(items)
    if tag == _T_DICT:
        count = _U32.unpack(cursor.take(4))[0]
        return {_unpack(cursor): _unpack(cursor) for _ in range(count)}
    if tag == _T_WALK_BATCH:
        return _unpack_walk_batch(cursor)
    if tag == _T_WALK_PARAMS:
        fields = _unpack(cursor)
        return WalkParams(
            kind=fields[0],
            target_size=fields[1],
            walk_length=fields[2],
            restart_probability=fields[3],
            direction=fields[4],
            threshold=fields[5],
            decay=fields[6],
            use_projected=fields[7],
        )
    if tag == _T_GENERATOR:
        return generator_from_state(_unpack(cursor))
    raise TransportError(f"frame carries unknown type tag 0x{tag.hex()}")


def unpack_message(payload: bytes | memoryview):
    """Decode a :func:`pack_message` payload.

    Arrays come back as read-only zero-copy views over ``payload``; the
    caller must keep the buffer alive for as long as any view into it
    (each view's ``.base`` chain pins it automatically).
    """
    cursor = _Cursor(memoryview(payload))
    value = _unpack(cursor)
    if cursor.offset != len(cursor.view):
        raise TransportError(
            f"frame payload holds {len(cursor.view) - cursor.offset} trailing bytes"
        )
    return value


# --------------------------------------------------------------------------- #
# frames
# --------------------------------------------------------------------------- #
def encode_frame(payload: bytes) -> bytes:
    """Wrap ``payload`` in the length-prefixed, checksummed frame header."""
    digest = hashlib.sha256(payload).hexdigest()
    header = FRAME_MAGIC + f" sha256={digest} size={len(payload)}\n".encode("ascii")
    return header + payload


def _parse_frame_header(header: bytes) -> tuple[str, int]:
    """Parse one header line (without the newline); returns (digest, size)."""
    if not header.startswith(FRAME_MAGIC + b" "):
        raise TransportError("stream does not carry a repro shard frame")
    try:
        fields = dict(
            part.split(b"=", 1) for part in header[len(FRAME_MAGIC) + 1 :].split(b" ")
        )
        digest = fields[b"sha256"].decode("ascii")
        size = int(fields[b"size"])
    except (KeyError, ValueError) as error:
        raise TransportError("shard frame header is malformed") from error
    if size < 0:
        raise TransportError("shard frame header is malformed")
    return digest, size


def _verify_payload(payload: bytes, digest: str) -> bytes:
    if hashlib.sha256(payload).hexdigest() != digest:
        raise TransportError(
            "shard frame failed its SHA-256 checksum; the stream is corrupt"
        )
    return payload


class _FrameParser:
    """Incremental frame parser fed by non-blocking socket reads."""

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._digest: str | None = None
        self._size = 0
        self.frames: deque[bytes] = deque()

    def feed(self, data: bytes) -> None:
        self._buffer += data
        while True:
            if self._digest is None:
                newline = self._buffer.find(b"\n")
                if newline < 0:
                    if len(self._buffer) > _MAX_HEADER_BYTES:
                        raise TransportError(
                            "shard frame header exceeds the size bound; the "
                            "stream is not speaking the frame protocol"
                        )
                    return
                self._digest, self._size = _parse_frame_header(
                    bytes(self._buffer[:newline])
                )
                del self._buffer[: newline + 1]
            if len(self._buffer) < self._size:
                return
            payload = bytes(self._buffer[: self._size])
            del self._buffer[: self._size]
            self.frames.append(_verify_payload(payload, self._digest))
            self._digest = None

    @property
    def mid_frame(self) -> bool:
        return bool(self._buffer) or self._digest is not None


def _read_frame_blocking(sock: socket.socket, parser: _FrameParser) -> bytes:
    """Read one frame from a blocking socket into a persistent parser.

    The parser must live as long as the connection: one ``recv`` burst can
    carry the tail of frame *N* plus the head of frame *N+1* (pipelined
    senders do this constantly), and those surplus bytes belong to the
    next call.
    """
    while not parser.frames:
        try:
            data = sock.recv(_RECV_CHUNK)
        except OSError as error:
            raise TransportError(f"shard channel read failed: {error}") from error
        if not data:
            if parser.mid_frame:
                raise TransportError(
                    "peer closed the connection mid-frame; the frame is truncated"
                )
            raise EOFError
        parser.feed(data)
    return parser.frames.popleft()


def _send_frame_blocking(sock: socket.socket, payload: bytes) -> int:
    frame = encode_frame(payload)
    try:
        sock.sendall(frame)
    except OSError as error:
        raise TransportError(f"shard channel write failed: {error}") from error
    return len(frame)


def parse_host_list(hosts) -> list[tuple[str, int]]:
    """Normalise ``host:port`` specs (string, comma list, or sequence)."""
    if hosts is None:
        return []
    if isinstance(hosts, str):
        hosts = [part for part in hosts.split(",") if part.strip()]
    parsed: list[tuple[str, int]] = []
    for spec in hosts:
        if isinstance(spec, (tuple, list)) and len(spec) == 2:
            parsed.append((str(spec[0]), int(spec[1])))
            continue
        text = str(spec).strip()
        host, separator, port = text.rpartition(":")
        if not separator or not host:
            raise TransportError(
                f"shard host {text!r} is not of the form host:port"
            )
        try:
            parsed.append((host, int(port)))
        except ValueError:
            raise TransportError(
                f"shard host {text!r} has a non-numeric port"
            ) from None
    return parsed


# --------------------------------------------------------------------------- #
# transport protocol
# --------------------------------------------------------------------------- #
@dataclass
class TransportStats:
    """Wire accounting one transport keeps while a run is live."""

    frames_sent: int = 0
    frames_received: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0


class ShardTransport:
    """Base shard channel: scatter requests, poll responses.

    ``scatter`` enqueues one request per addressed shard and returns
    without waiting; ``poll`` hands back ``(shard_id, response)`` pairs as
    they arrive.  ``request`` is the synchronous convenience built on the
    two.  Subclasses set :attr:`name` and :attr:`workers`.
    """

    name = "abstract"
    workers = 1

    def __init__(self) -> None:
        self.stats = TransportStats()
        self._outstanding = 0

    # hooks ------------------------------------------------------------- #
    def _scatter(self, kind: str, payload_by_shard: dict[int, object]) -> None:
        raise NotImplementedError

    def _poll(self, block: bool) -> list[tuple[int, object]]:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    # shared API -------------------------------------------------------- #
    def scatter(self, kind: str, payload_by_shard: dict[int, object]) -> None:
        if not payload_by_shard:
            return
        self._scatter(kind, payload_by_shard)
        self._outstanding += len(payload_by_shard)

    def poll(self, block: bool = True) -> list[tuple[int, object]]:
        if self._outstanding == 0:
            return []
        responses = self._poll(block)
        self._outstanding -= len(responses)
        return responses

    @property
    def outstanding(self) -> int:
        return self._outstanding

    def request(self, kind: str, payload_by_shard: dict[int, object]) -> dict[int, object]:
        if self._outstanding:
            raise TransportError(
                "request() issued while responses are still outstanding; "
                "drain poll() first"
            )
        self.scatter(kind, payload_by_shard)
        responses: dict[int, object] = {}
        while self._outstanding:
            for shard_id, response in self.poll(block=True):
                responses[shard_id] = response
        return responses


class LocalTransport(ShardTransport):
    """Hosts in the coordinator process; requests are direct calls."""

    name = "local"

    def __init__(self, shard_set) -> None:
        super().__init__()
        from repro.sharding.runtime import _ShardHost

        self.hosts = {
            shard_id: _ShardHost(shard)
            for shard_id, shard in enumerate(shard_set.shards)
        }
        self._ready: deque[tuple[int, object]] = deque()

    def _scatter(self, kind: str, payload_by_shard: dict[int, object]) -> None:
        for shard_id in sorted(payload_by_shard):
            self._ready.append(
                (shard_id, self.hosts[shard_id].handle(kind, payload_by_shard[shard_id]))
            )

    def _poll(self, block: bool) -> list[tuple[int, object]]:
        responses = list(self._ready)
        self._ready.clear()
        return responses

    def close(self) -> None:
        for host in self.hosts.values():
            host.view.snapshot = None
        self.hosts = {}
        self._ready.clear()


class _HostConnection:
    """Coordinator-side non-blocking connection to one shard host."""

    __slots__ = ("sock", "address", "shards", "parser", "out", "inflight")

    def __init__(self, sock: socket.socket, address: tuple[str, int]) -> None:
        self.sock = sock
        self.address = address
        self.shards: list[int] = []
        self.parser = _FrameParser()
        self.out: deque[memoryview] = deque()
        self.inflight = 0


class TcpTransport(ShardTransport):
    """Socket-server shard hosts; frames with pipelined scatter/gather.

    ``hosts`` is a list of ``(host, port)`` addresses of running
    ``repro shard-host`` servers.  When omitted, the transport spawns
    ``workers`` local shard-host processes over loopback (shards assigned
    round-robin) — the single-machine configuration the benchmarks and CI
    smoke exercise.
    """

    name = "tcp"

    def __init__(
        self,
        shard_set,
        *,
        hosts=None,
        workers: int = 1,
        timeout: float | None = DEFAULT_TIMEOUT,
        obs=None,
    ) -> None:
        super().__init__()
        self.obs = ensure_obs(obs)
        self.timeout = timeout
        self.num_shards = shard_set.num_shards
        self._selector = selectors.DefaultSelector()
        self._processes: list = []
        self._connections: list[_HostConnection] = []
        self._host_of: dict[int, _HostConnection] = {}
        self._ready: deque[tuple[int, object]] = deque()
        addresses = parse_host_list(hosts)
        try:
            if not addresses:
                addresses = self._spawn_local_hosts(shard_set, workers)
            self._connect(addresses)
        except Exception:
            self.close()
            raise
        self.workers = len(self._connections)

    # setup ------------------------------------------------------------- #
    def _spawn_local_hosts(self, shard_set, workers: int) -> list[tuple[str, int]]:
        import multiprocessing

        workers = max(1, min(workers, shard_set.num_shards))
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:
            context = multiprocessing.get_context("spawn")
        paths = shard_set.shard_paths()
        specs_by_worker: dict[int, list] = {w: [] for w in range(workers)}
        for shard_id in range(shard_set.num_shards):
            if paths is not None and os.path.exists(paths[shard_id]):
                spec = paths[shard_id]
            else:
                spec = shard_set.shards[shard_id]
            specs_by_worker[shard_id % workers].append((shard_id, spec))
        addresses = []
        for worker_index in range(workers):
            parent_end, child_end = context.Pipe()
            process = context.Process(
                target=_spawned_host_main,
                args=(child_end, specs_by_worker[worker_index]),
                daemon=True,
            )
            process.start()
            child_end.close()
            self._processes.append(process)
            try:
                if not parent_end.poll(30.0):
                    raise TransportError(
                        f"spawned shard host {worker_index} never reported a port"
                    )
                port = parent_end.recv()
            except (EOFError, OSError) as error:
                raise TransportError(
                    f"spawned shard host {worker_index} died during startup"
                ) from error
            finally:
                parent_end.close()
            addresses.append(("127.0.0.1", int(port)))
        return addresses

    def _connect(self, addresses: list[tuple[str, int]]) -> None:
        hosted: dict[int, tuple[str, int]] = {}
        for address in addresses:
            try:
                sock = socket.create_connection(address, timeout=self.timeout)
            except OSError as error:
                raise TransportError(
                    f"cannot reach shard host {address[0]}:{address[1]}: {error}"
                ) from error
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            connection = _HostConnection(sock, address)
            # The handshake reads through the connection's persistent
            # parser so any bytes beyond the hello frame stay buffered.
            hello = unpack_message(
                _read_frame_sock_timeout(sock, self.timeout, connection.parser)
            )
            if (
                not isinstance(hello, dict)
                or hello.get("protocol") != PROTOCOL_VERSION
            ):
                raise TransportError(
                    f"shard host {address[0]}:{address[1]} spoke protocol "
                    f"{hello.get('protocol') if isinstance(hello, dict) else '?'}, "
                    f"expected {PROTOCOL_VERSION}"
                )
            if int(hello.get("num_nodes", -1)) not in (-1, 0):
                pass  # informational; coverage is validated below per shard
            connection.shards = [int(s) for s in hello.get("shards", [])]
            for shard_id in connection.shards:
                if shard_id in hosted:
                    raise TransportError(
                        f"shard {shard_id} is hosted by both "
                        f"{hosted[shard_id]} and {address}"
                    )
                hosted[shard_id] = address
                self._host_of[shard_id] = connection
            sock.setblocking(False)
            self._selector.register(sock, selectors.EVENT_READ, connection)
            self._connections.append(connection)
        missing = [s for s in range(self.num_shards) if s not in hosted]
        if missing:
            raise TransportError(
                f"no shard host serves shards {missing}; every shard must "
                "be hosted by exactly one --shard-hosts entry"
            )

    # event pump -------------------------------------------------------- #
    def _update_write_interest(self, connection: _HostConnection) -> None:
        events = selectors.EVENT_READ
        if connection.out:
            events |= selectors.EVENT_WRITE
        self._selector.modify(connection.sock, events, connection)

    def _pump(self, timeout: float | None) -> None:
        for key, mask in self._selector.select(timeout):
            connection: _HostConnection = key.data
            if mask & selectors.EVENT_WRITE:
                while connection.out:
                    chunk = connection.out[0]
                    try:
                        sent = connection.sock.send(chunk)
                    except BlockingIOError:
                        break
                    except OSError as error:
                        raise TransportError(
                            f"shard host {connection.address[0]}:"
                            f"{connection.address[1]} (shards "
                            f"{connection.shards}) dropped the connection "
                            f"mid-send: {error}"
                        ) from error
                    self.stats.bytes_sent += sent
                    if sent == len(chunk):
                        connection.out.popleft()
                    else:
                        connection.out[0] = chunk[sent:]
                        break
                if not connection.out:
                    self._update_write_interest(connection)
            if mask & selectors.EVENT_READ:
                try:
                    data = connection.sock.recv(_RECV_CHUNK)
                except BlockingIOError:
                    continue
                except OSError as error:
                    raise TransportError(
                        f"shard host {connection.address[0]}:"
                        f"{connection.address[1]} (shards {connection.shards}) "
                        f"dropped the connection: {error}"
                    ) from error
                if not data:
                    detail = (
                        "mid-frame; the reply is truncated"
                        if connection.parser.mid_frame
                        else "mid-round"
                    )
                    raise TransportError(
                        f"shard host {connection.address[0]}:"
                        f"{connection.address[1]} (shards {connection.shards}) "
                        f"closed the connection {detail}"
                    )
                self.stats.bytes_received += len(data)
                connection.parser.feed(data)
                while connection.parser.frames:
                    payload = connection.parser.frames.popleft()
                    self.stats.frames_received += 1
                    connection.inflight -= 1
                    message = unpack_message(payload)
                    for shard_id in sorted(message):
                        self._ready.append((int(shard_id), message[shard_id]))

    # transport hooks ---------------------------------------------------- #
    def _scatter(self, kind: str, payload_by_shard: dict[int, object]) -> None:
        by_connection: dict[int, dict[int, object]] = {}
        order: dict[int, _HostConnection] = {}
        for shard_id, payload in payload_by_shard.items():
            connection = self._host_of.get(shard_id)
            if connection is None:
                raise TransportError(f"no shard host serves shard {shard_id}")
            marker = id(connection)
            by_connection.setdefault(marker, {})[shard_id] = payload
            order[marker] = connection
        for marker, sub_payload in by_connection.items():
            connection = order[marker]
            # One frame per host per scatter: every task bound for this
            # host's shards travels coalesced, serialized now while other
            # hosts' replies keep flowing through the pump below.
            frame = encode_frame(pack_message((kind, sub_payload)))
            connection.out.append(memoryview(frame))
            connection.inflight += 1
            self.stats.frames_sent += 1
            self._update_write_interest(connection)
            self._pump(0)

    def _poll(self, block: bool) -> list[tuple[int, object]]:
        deadline = (
            None if self.timeout is None else time.monotonic() + self.timeout
        )
        while block and not self._ready:
            remaining = None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TransportError(
                        f"no shard host replied within {self.timeout:.0f}s; "
                        "treating the round as failed instead of hanging"
                    )
            self._pump(remaining)
        if not block:
            self._pump(0)
        responses = list(self._ready)
        self._ready.clear()
        return responses

    def close(self) -> None:
        for connection in self._connections:
            try:
                self._selector.unregister(connection.sock)
            except (KeyError, ValueError):
                pass
            try:
                connection.sock.close()
            except OSError as error:
                self.obs.event(
                    "sharding.worker_channel_error",
                    worker=f"{connection.address[0]}:{connection.address[1]}",
                    shards=connection.shards,
                    error=f"{type(error).__name__}: {error}",
                )
        self._connections = []
        self._host_of = {}
        self._ready.clear()
        try:
            self._selector.close()
        except OSError:
            pass
        for process in self._processes:
            process.join(timeout=5.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
        self._processes = []


def _read_frame_sock_timeout(
    sock: socket.socket, timeout: float | None, parser: _FrameParser
) -> bytes:
    previous = sock.gettimeout()
    sock.settimeout(timeout)
    try:
        return _read_frame_blocking(sock, parser)
    except EOFError:
        raise TransportError(
            "shard host closed the connection before completing the handshake"
        ) from None
    except socket.timeout:
        raise TransportError(
            "shard host did not complete the handshake in time"
        ) from None
    finally:
        sock.settimeout(previous)


# --------------------------------------------------------------------------- #
# shard host server (the remote end of TcpTransport)
# --------------------------------------------------------------------------- #
class ShardHostServer:
    """Serves one or more shards to a TCP coordinator.

    Accepts one coordinator connection at a time (the sharded engine has
    exactly one coordinator); after an orderly disconnect it loops back
    to ``accept`` so a new run can reuse a long-lived host.  Every
    connection starts with a hello frame naming the protocol version and
    the hosted shard ids, which the coordinator uses to validate that the
    host set covers every shard exactly once.
    """

    def __init__(
        self,
        shards: dict[int, object],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        obs=None,
    ) -> None:
        from repro.sharding.runtime import _ShardHost

        self.obs = ensure_obs(obs)
        self.hosts = {
            int(shard_id): _ShardHost(shard) for shard_id, shard in shards.items()
        }
        self._listener = socket.create_server((host, port), backlog=2)
        self.address = self._listener.getsockname()[:2]
        self._closed = False

    @property
    def shard_ids(self) -> list[int]:
        return sorted(self.hosts)

    def _hello_payload(self) -> bytes:
        return pack_message(
            {
                "protocol": PROTOCOL_VERSION,
                "shards": self.shard_ids,
            }
        )

    def serve_connection(self, sock: socket.socket) -> None:
        """Serve one coordinator until it disconnects."""
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        _send_frame_blocking(sock, self._hello_payload())
        parser = _FrameParser()
        while True:
            try:
                payload = _read_frame_blocking(sock, parser)
            except EOFError:
                return
            kind, by_shard = unpack_message(payload)
            response = {
                shard_id: self.hosts[shard_id].handle(kind, by_shard[shard_id])
                for shard_id in sorted(by_shard)
            }
            _send_frame_blocking(sock, pack_message(response))

    def serve_forever(self, max_connections: int | None = None) -> None:
        """Accept coordinators until closed (or ``max_connections`` served).

        Long-lived ``repro shard-host`` processes pass ``None`` and outlive
        any number of runs; auto-spawned loopback hosts pass ``1`` so the
        process exits the moment its private coordinator disconnects
        instead of blocking in ``accept`` until it is terminated.
        """
        served = 0
        while not self._closed:
            try:
                sock, peer = self._listener.accept()
            except OSError:
                return  # listener closed from another thread / signal path
            try:
                self.serve_connection(sock)
            except TransportError as error:
                self.obs.event(
                    "sharding.host_connection_error",
                    peer=f"{peer[0]}:{peer[1]}",
                    shards=self.shard_ids,
                    error=str(error),
                )
            finally:
                try:
                    sock.close()
                except OSError:
                    pass
            served += 1
            if max_connections is not None and served >= max_connections:
                return

    def close(self) -> None:
        self._closed = True
        for host in self.hosts.values():
            host.view.snapshot = None
        try:
            self._listener.close()
        except OSError:
            pass


def _spawned_host_main(connection, shard_specs) -> None:
    """Body of an auto-spawned loopback shard host process."""
    from repro.sharding.partition import load_shard

    shards = {}
    for shard_id, spec in shard_specs:
        shards[shard_id] = load_shard(spec) if isinstance(spec, str) else spec
    server = ShardHostServer(shards)
    try:
        connection.send(server.address[1])
        connection.close()
        server.serve_forever(max_connections=1)
    finally:
        server.close()


# --------------------------------------------------------------------------- #
# resolution
# --------------------------------------------------------------------------- #
TRANSPORTS = ("local", "tcp")


def resolve_transport(transport: str | None, workers: int) -> str:
    """Resolve the transport name; ``None`` means in-process for one
    worker and spawned loopback TCP hosts beyond that."""
    if transport is None:
        return "local" if workers <= 1 else "tcp"
    if transport not in TRANSPORTS:
        raise TransportError(
            f"unknown shard transport {transport!r}; choose from {TRANSPORTS}"
        )
    return transport
