"""Shard transport: codec, frames, fault injection, and the no-pickle proof.

The wire contract has three layers, each tested here in isolation:

* the **tagged binary codec** (``pack_message`` / ``unpack_message``) —
  round-trips builtins, numpy arrays (as read-only zero-copy views),
  128-bit PCG64 generator states mid-stream, and columnar walk batches,
  and raises :class:`TransportError` for anything else (there is no
  pickle fallback, and a monkeypatched-poisoned ``pickle`` proves it);
* the **frame layer** (``encode_frame`` / ``_FrameParser``) — survives
  dribbled and coalesced reads, and rejects truncation, bit flips, bad
  magic, and malformed headers with clean errors;
* the **transports** — TCP loopback request/scatter/poll bookkeeping,
  per-host frame coalescing, and every misbehaving-peer mode (killed
  host, truncated reply, checksum corruption, garbage hello) surfacing
  as :class:`TransportError`, never a hang, with sockets and host
  processes released on every error path.
"""

import math
import pickle
import socket
import threading

import numpy as np
import pytest

from repro.errors import SamplingError, TransportError
from repro.graphs.generators import powerlaw_cluster_graph
from repro.sharding import (
    LocalTransport,
    ShardRuntime,
    TcpTransport,
    build_shard_set,
    pack_message,
    resolve_transport,
    unpack_message,
)
from repro.sharding.transport import (
    FRAME_MAGIC,
    PROTOCOL_VERSION,
    _FrameParser,
    _read_frame_blocking,
    _send_frame_blocking,
    encode_frame,
    parse_host_list,
)
from repro.sharding.walker import WalkParams, WalkTask
from repro.utils.rng import child_generator

ENTROPY = 987654321


@pytest.fixture(scope="module")
def graph():
    return powerlaw_cluster_graph(40, 2, 0.3, rng=3)


@pytest.fixture(scope="module")
def shard_set_1(graph):
    return build_shard_set(graph, 1, rng=1)


@pytest.fixture(scope="module")
def shard_set_2(graph):
    return build_shard_set(graph, 2, rng=1)


def make_task(key: int, *, allowed=None, draw_uint32: bool = False) -> WalkTask:
    """An in-flight walk with a mid-stream child generator."""
    generator = child_generator(ENTROPY, key)
    generator.random()  # advance past the stream head: state is mid-walk
    if draw_uint32:
        # Leaves the PCG64 half-word buffer populated (has_uint32 set),
        # the hardest part of the 128-bit state to ship correctly.
        generator.integers(0, 1000, dtype=np.uint32)
    return WalkTask(
        key=key,
        start=3,
        start_owner=0,
        current=5 + key,
        steps=2 * key,
        restart_drawn=bool(key % 2),
        visited=[3, 5, 5 + key],
        generator=generator,
        allowed=allowed,
        forwards=key,
    )


def assert_tasks_equal(decoded: WalkTask, original: WalkTask) -> None:
    assert decoded.key == original.key
    assert decoded.start == original.start
    assert decoded.start_owner == original.start_owner
    assert decoded.current == original.current
    assert decoded.steps == original.steps
    assert decoded.restart_drawn == original.restart_drawn
    assert decoded.visited == original.visited
    assert decoded.allowed == original.allowed
    assert decoded.forwards == original.forwards
    # The decoded generator must continue the stream bit-for-bit.
    np.testing.assert_array_equal(
        decoded.generator.integers(0, 2**62, 8),
        original.generator.integers(0, 2**62, 8),
    )
    np.testing.assert_array_equal(
        decoded.generator.random(4), original.generator.random(4)
    )


# --------------------------------------------------------------------------- #
# codec
# --------------------------------------------------------------------------- #
class TestCodec:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -1,
            2**64,
            -(2**100),
            2**127 + 12345,  # PCG64-state magnitude
            3.5,
            -0.0,
            float("inf"),
            "",
            "θ-projection ünïcode",
            b"",
            b"\x00\xffraw",
            [],
            [1, "two", 3.0, None],
            (1, (2, (3,))),
            {"a": 1, 2: [True, {"nested": ()}]},
            {3, 1, 2},
            frozenset({"x", "y"}),
        ],
    )
    def test_round_trip(self, value):
        decoded = unpack_message(pack_message(value))
        assert decoded == value
        assert type(decoded) is type(value)

    def test_nan_round_trips(self):
        assert math.isnan(unpack_message(pack_message(float("nan"))))

    @pytest.mark.parametrize(
        "array",
        [
            np.arange(12, dtype=np.int64).reshape(3, 4),
            np.linspace(0, 1, 7),
            np.array([], dtype=np.float32),
            np.arange(6, dtype=np.uint64),
            np.array([[True, False], [False, True]]),
            np.empty((0, 3), dtype=np.int64),
        ],
    )
    def test_ndarray_round_trip(self, array):
        decoded = unpack_message(pack_message(array))
        np.testing.assert_array_equal(decoded, array)
        assert decoded.dtype == array.dtype
        assert decoded.shape == array.shape

    def test_ndarray_decodes_zero_copy(self):
        """Receive side: arrays are read-only views over the frame buffer."""
        payload = pack_message(np.arange(4096, dtype=np.int64))
        decoded = unpack_message(payload)
        assert decoded.flags.writeable is False
        assert np.shares_memory(decoded, np.frombuffer(payload, dtype=np.uint8))

    def test_repeated_array_back_references(self):
        """The same array object encodes once; decode restores the aliasing."""
        array = np.arange(10_000, dtype=np.int64)
        payload = pack_message((array, array, array))
        assert len(payload) < 2 * array.nbytes  # one body + two back-refs
        first, second, third = unpack_message(payload)
        assert first is second is third
        np.testing.assert_array_equal(first, array)

    def test_generator_round_trips_mid_stream(self):
        generator = child_generator(ENTROPY, 42)
        generator.random(3)  # ship a mid-stream state, not a fresh seed
        twin = unpack_message(pack_message(generator))
        np.testing.assert_array_equal(twin.random(16), generator.random(16))
        np.testing.assert_array_equal(
            twin.integers(0, 2**62, 8), generator.integers(0, 2**62, 8)
        )

    def test_walk_params_round_trip(self):
        params = WalkParams(
            kind="frequency",
            target_size=8,
            walk_length=200,
            restart_probability=0.15,
            direction="both",
            threshold=3,
            decay=0.9,
            use_projected=True,
        )
        assert unpack_message(pack_message(params)) == params

    def test_walk_batch_round_trip(self):
        tasks = [
            make_task(0),
            make_task(1, allowed=frozenset({2, 5, 9})),
            make_task(2, draw_uint32=True),
            make_task(3, allowed=frozenset()),
        ]
        originals = [
            make_task(0),
            make_task(1, allowed=frozenset({2, 5, 9})),
            make_task(2, draw_uint32=True),
            make_task(3, allowed=frozenset()),
        ]
        decoded = unpack_message(pack_message(tasks))
        assert len(decoded) == len(originals)
        for got, want in zip(decoded, originals):
            assert_tasks_equal(got, want)

    def test_wire_shaped_message_with_many_batches(self):
        """The hot-path shape — ``(kind, {shard: [tasks]})`` — round-trips
        with many batches in one frame (the id-reuse pinning regression:
        per-batch temporaries must not alias later arrays)."""
        message = (
            "walks",
            {shard: [make_task(3 * shard + i) for i in range(3)] for shard in range(8)},
        )
        kind, by_shard = unpack_message(pack_message(message))
        assert kind == "walks"
        assert sorted(by_shard) == list(range(8))
        for shard in range(8):
            for i, task in enumerate(by_shard[shard]):
                assert_tasks_equal(task, make_task(3 * shard + i))

    def test_unsupported_type_raises_instead_of_pickling(self):
        class Opaque:
            pass

        with pytest.raises(TransportError, match="without pickle"):
            pack_message({"payload": Opaque()})
        with pytest.raises(TransportError, match="without pickle"):
            pack_message(object())

    def test_codec_never_touches_pickle(self, monkeypatch):
        """Poison pickle entirely: the full hot-path message must still
        encode and decode — the no-pickle property, proven."""

        def poisoned(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("transport codec reached for pickle")

        monkeypatch.setattr(pickle, "dumps", poisoned)
        monkeypatch.setattr(pickle, "loads", poisoned)
        monkeypatch.setattr(pickle, "dump", poisoned)
        monkeypatch.setattr(pickle, "load", poisoned)
        monkeypatch.setattr(pickle, "Pickler", poisoned)
        monkeypatch.setattr(pickle, "Unpickler", poisoned)
        message = (
            "walks",
            {0: [make_task(0), make_task(1, allowed=frozenset({1, 2}))]},
        )
        kind, by_shard = unpack_message(pack_message(message))
        assert kind == "walks"
        assert_tasks_equal(by_shard[0][0], make_task(0))

    def test_trailing_bytes_rejected(self):
        with pytest.raises(TransportError, match="trailing bytes"):
            unpack_message(pack_message({"ok": 1}) + b"\x00")

    def test_truncated_payload_rejected(self):
        payload = pack_message(np.arange(100))
        with pytest.raises(TransportError, match="truncated"):
            unpack_message(payload[: len(payload) - 8])

    def test_dangling_back_reference_rejected(self):
        # _T_NDREF to index 0 with no array ever carried.
        with pytest.raises(TransportError, match="never carried"):
            unpack_message(b"\x0d\x00\x00\x00\x00")

    def test_unknown_tag_rejected(self):
        with pytest.raises(TransportError, match="unknown type tag"):
            unpack_message(b"\xfe")


# --------------------------------------------------------------------------- #
# frames
# --------------------------------------------------------------------------- #
class TestFrames:
    def test_frame_survives_dribbled_reads(self):
        frame = encode_frame(pack_message({"chunked": list(range(50))}))
        parser = _FrameParser()
        for offset in range(0, len(frame), 7):
            parser.feed(frame[offset : offset + 7])
        assert len(parser.frames) == 1
        assert unpack_message(parser.frames[0]) == {"chunked": list(range(50))}
        assert not parser.mid_frame

    def test_two_frames_in_one_read_burst(self):
        """Pipelined senders coalesce frames: one recv can carry the tail
        of frame N plus the head of frame N+1, and the parser must keep
        the surplus (the bug class that hangs a fresh-parser-per-read)."""
        first = encode_frame(pack_message("first"))
        second = encode_frame(pack_message("second"))
        parser = _FrameParser()
        parser.feed(first + second[:10])
        assert [unpack_message(f) for f in parser.frames] == ["first"]
        assert parser.mid_frame
        parser.feed(second[10:])
        assert [unpack_message(f) for f in parser.frames] == ["first", "second"]

    def test_bit_flip_fails_checksum(self):
        frame = bytearray(encode_frame(pack_message([1, 2, 3])))
        frame[-1] ^= 0x01
        with pytest.raises(TransportError, match="checksum"):
            _FrameParser().feed(bytes(frame))

    def test_bad_magic_rejected(self):
        with pytest.raises(TransportError, match="does not carry"):
            _FrameParser().feed(b"HTTP/1.1 200 OK\r\n")

    @pytest.mark.parametrize(
        "header",
        [
            FRAME_MAGIC + b" sha256=abc\n",  # missing size
            FRAME_MAGIC + b" sha256=abc size=nope\n",
            FRAME_MAGIC + b" size=4\n",  # missing digest
            FRAME_MAGIC + b" sha256=abc size=-4\n",
        ],
    )
    def test_malformed_header_rejected(self, header):
        with pytest.raises(TransportError, match="malformed"):
            _FrameParser().feed(header)

    def test_unbounded_header_rejected(self):
        with pytest.raises(TransportError, match="size bound"):
            _FrameParser().feed(b"A" * 500)

    def test_blocking_read_reports_truncation(self):
        """A peer dying mid-frame is a clean error, not a hang or a
        silent empty read."""
        ours, theirs = socket.socketpair()
        try:
            frame = encode_frame(pack_message("doomed"))
            theirs.sendall(frame[: len(frame) - 4])
            theirs.close()
            with pytest.raises(TransportError, match="truncated"):
                _read_frame_blocking(ours, _FrameParser())
        finally:
            ours.close()

    def test_blocking_read_round_trip_keeps_surplus(self):
        ours, theirs = socket.socketpair()
        try:
            _send_frame_blocking(theirs, pack_message("one"))
            _send_frame_blocking(theirs, pack_message("two"))
            parser = _FrameParser()
            assert unpack_message(_read_frame_blocking(ours, parser)) == "one"
            assert unpack_message(_read_frame_blocking(ours, parser)) == "two"
        finally:
            ours.close()
            theirs.close()

    def test_parse_host_list(self):
        assert parse_host_list(None) == []
        assert parse_host_list("127.0.0.1:7431, 10.0.0.2:7432") == [
            ("127.0.0.1", 7431),
            ("10.0.0.2", 7432),
        ]
        assert parse_host_list([("hostname", 1)]) == [("hostname", 1)]
        with pytest.raises(TransportError, match="host:port"):
            parse_host_list("no-port-here")
        with pytest.raises(TransportError, match="non-numeric"):
            parse_host_list("host:seventy")


# --------------------------------------------------------------------------- #
# a scripted stand-in for `repro shard-host` that misbehaves on cue
# --------------------------------------------------------------------------- #
class _ScriptedHost:
    """Accepts one coordinator and follows ``mode``:

    ``garbage``     — speaks HTTP instead of the frame protocol;
    ``slam``        — closes before sending the hello;
    ``hello_only``  — valid hello, then absorbs requests silently forever;
    ``die``         — valid hello, reads one request, closes without reply;
    ``bit_flip``    — replies to the first request with a corrupted frame;
    ``truncate``    — replies with half a frame, then closes.
    """

    def __init__(self, mode: str, shards=(0,)) -> None:
        self.mode = mode
        self.shards = [int(s) for s in shards]
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.port = self._listener.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    @property
    def spec(self) -> str:
        return f"127.0.0.1:{self.port}"

    def _serve(self) -> None:
        try:
            sock, _ = self._listener.accept()
        except OSError:
            return
        try:
            if self.mode == "garbage":
                sock.sendall(b"HTTP/1.1 200 OK\r\nnot a shard host\r\n")
                return
            if self.mode == "slam":
                return
            _send_frame_blocking(
                sock,
                pack_message({"protocol": PROTOCOL_VERSION, "shards": self.shards}),
            )
            if self.mode == "hello_only":
                try:
                    while sock.recv(1 << 16):
                        pass
                except OSError:
                    pass
                return
            parser = _FrameParser()
            try:
                payload = _read_frame_blocking(sock, parser)
            except (EOFError, TransportError):
                return
            _kind, by_shard = unpack_message(payload)
            reply = bytearray(
                encode_frame(pack_message({int(s): True for s in by_shard}))
            )
            if self.mode == "die":
                return
            if self.mode == "bit_flip":
                reply[-1] ^= 0x01
                sock.sendall(bytes(reply))
            elif self.mode == "truncate":
                sock.sendall(bytes(reply[: len(reply) // 2]))
        finally:
            try:
                sock.close()
            except OSError:
                pass

    def close(self) -> None:
        try:
            self._listener.close()
        except OSError:
            pass


# --------------------------------------------------------------------------- #
# transports
# --------------------------------------------------------------------------- #
class TestResolution:
    def test_default_is_local_then_loopback_tcp(self):
        assert resolve_transport(None, 1) == "local"
        assert resolve_transport(None, 2) == "tcp"

    def test_explicit_names_pass_through(self):
        for name in ("local", "tcp"):
            assert resolve_transport(name, 4) == name

    def test_unknown_transport_rejected(self):
        with pytest.raises(TransportError, match="unknown shard transport"):
            resolve_transport("carrier-pigeon", 1)


class TestLocalTransport:
    def test_request_and_scatter_poll(self, shard_set_2):
        transport = LocalTransport(shard_set_2)
        try:
            responses = transport.request("stats", {0: None, 1: None})
            assert sorted(responses) == [0, 1]
            transport.scatter("stats", {1: None})
            assert transport.outstanding == 1
            [(shard_id, _)] = transport.poll()
            assert shard_id == 1
            assert transport.outstanding == 0
        finally:
            transport.close()


class TestTcpTransport:
    def test_loopback_request_and_frame_coalescing(self, shard_set_2):
        """One auto-spawned host serving both shards: a two-shard request
        travels as ONE coalesced frame each way."""
        transport = TcpTransport(shard_set_2, workers=1, timeout=60.0)
        try:
            assert transport.workers == 1
            responses = transport.request("stats", {0: None, 1: None})
            assert sorted(responses) == [0, 1]
            assert responses[0]["num_owned"] > 0
            assert transport.stats.frames_sent == 1
            assert transport.stats.frames_received == 1
            assert transport.stats.bytes_sent > 0
            assert transport.stats.bytes_received > 0
        finally:
            transport.close()
        assert transport._processes == []  # spawned hosts reaped

    def test_scatter_poll_bookkeeping(self, shard_set_2):
        transport = TcpTransport(shard_set_2, workers=2, timeout=60.0)
        try:
            transport.scatter("stats", {0: None, 1: None})
            assert transport.outstanding == 2
            with pytest.raises(TransportError, match="outstanding"):
                transport.request("stats", {0: None})
            collected = []
            while transport.outstanding:
                collected.extend(transport.poll(block=True))
            assert sorted(shard for shard, _ in collected) == [0, 1]
        finally:
            transport.close()

    def test_killed_host_is_clean_error_not_hang(self, shard_set_2):
        transport = TcpTransport(shard_set_2, workers=2, timeout=30.0)
        try:
            victim = transport._processes[0]
            victim.terminate()
            victim.join(timeout=10.0)
            with pytest.raises(TransportError):
                transport.request("stats", {0: None, 1: None})
        finally:
            transport.close()
        assert transport._connections == [] and transport._processes == []

    def test_garbage_hello_rejected(self, shard_set_1):
        host = _ScriptedHost("garbage")
        try:
            with pytest.raises(TransportError, match="does not carry"):
                TcpTransport(shard_set_1, hosts=host.spec, timeout=30.0)
        finally:
            host.close()

    def test_connection_slammed_before_hello(self, shard_set_1):
        host = _ScriptedHost("slam")
        try:
            with pytest.raises(TransportError, match="handshake"):
                TcpTransport(shard_set_1, hosts=host.spec, timeout=30.0)
        finally:
            host.close()

    def test_unreachable_host_rejected(self, shard_set_1):
        # A listener that is closed immediately: connection refused.
        placeholder = socket.create_server(("127.0.0.1", 0))
        port = placeholder.getsockname()[1]
        placeholder.close()
        with pytest.raises(TransportError, match="cannot reach"):
            TcpTransport(shard_set_1, hosts=f"127.0.0.1:{port}", timeout=10.0)

    def test_duplicate_shard_coverage_rejected(self, shard_set_1):
        first = _ScriptedHost("hello_only", shards=[0])
        second = _ScriptedHost("hello_only", shards=[0])
        try:
            with pytest.raises(TransportError, match="hosted by both"):
                TcpTransport(
                    shard_set_1, hosts=[first.spec, second.spec], timeout=30.0
                )
        finally:
            first.close()
            second.close()

    def test_missing_shard_coverage_rejected(self, shard_set_2):
        host = _ScriptedHost("hello_only", shards=[0])
        try:
            with pytest.raises(TransportError, match="no shard host serves"):
                TcpTransport(shard_set_2, hosts=host.spec, timeout=30.0)
        finally:
            host.close()

    def test_corrupted_reply_fails_checksum(self, shard_set_1):
        host = _ScriptedHost("bit_flip", shards=[0])
        transport = TcpTransport(shard_set_1, hosts=host.spec, timeout=30.0)
        try:
            with pytest.raises(TransportError, match="checksum"):
                transport.request("stats", {0: None})
        finally:
            transport.close()
            host.close()

    def test_truncated_reply_is_clean_error(self, shard_set_1):
        host = _ScriptedHost("truncate", shards=[0])
        transport = TcpTransport(shard_set_1, hosts=host.spec, timeout=30.0)
        try:
            with pytest.raises(TransportError, match="truncated|closed the connection"):
                transport.request("stats", {0: None})
        finally:
            transport.close()
            host.close()

    def test_host_dropping_mid_round_is_clean_error(self, shard_set_1):
        host = _ScriptedHost("die", shards=[0])
        transport = TcpTransport(shard_set_1, hosts=host.spec, timeout=30.0)
        try:
            with pytest.raises(TransportError, match="closed the connection"):
                transport.request("stats", {0: None})
        finally:
            transport.close()
            host.close()


class TestRuntimeCleanup:
    def test_snapshot_and_hosts_released_on_close(self, shard_set_2):
        runtime = ShardRuntime(shard_set_2, workers=2, snapshot=True)
        assert runtime.transport_name == "tcp"
        processes = list(runtime.transport._processes)
        runtime.write_snapshot(
            np.arange(shard_set_2.num_nodes, dtype=np.int64)
        )
        runtime.close()
        assert runtime.transport is None
        assert runtime._shipped is None
        assert processes and not any(p.is_alive() for p in processes)

    def test_failed_tcp_construction_raises_sampling_error(self, shard_set_2):
        placeholder = socket.create_server(("127.0.0.1", 0))
        port = placeholder.getsockname()[1]
        placeholder.close()
        with pytest.raises(SamplingError):
            ShardRuntime(
                shard_set_2,
                snapshot=True,
                transport="tcp",
                shard_hosts=f"127.0.0.1:{port}",
                timeout=10.0,
            )

    def test_transport_error_is_a_sampling_error(self):
        assert issubclass(TransportError, SamplingError)
