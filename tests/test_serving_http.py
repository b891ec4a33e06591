"""HTTP front-end tests: endpoints, degradation (503/504), bursts."""

from __future__ import annotations

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.graphs.generators import barabasi_albert_graph
from repro.serving.engine import ScoringEngine
from repro.serving.http import make_server, start_in_thread
from repro.serving.registry import ModelRegistry
from repro.serving.service import InfluenceService, ServiceConfig

from tests.test_serving_registry import make_artifact


class _Client:
    """Minimal JSON client returning (status, payload, headers)."""

    def __init__(self, port: int) -> None:
        self.base = f"http://127.0.0.1:{port}"

    def request(self, path: str, payload: dict | None = None):
        if payload is None:
            req = urllib.request.Request(self.base + path)
        else:
            req = urllib.request.Request(
                self.base + path,
                data=json.dumps(payload).encode("utf-8"),
                headers={"Content-Type": "application/json"},
            )
        try:
            with urllib.request.urlopen(req, timeout=30) as response:
                return response.status, json.loads(response.read()), dict(
                    response.headers
                )
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read()), dict(error.headers)

    def get(self, path: str):
        return self.request(path)

    def post(self, path: str, payload: dict):
        return self.request(path, payload)


@pytest.fixture()
def stack(tmp_path):
    """A live server over a tiny published artifact; tears down cleanly."""
    graph = barabasi_albert_graph(40, 2, rng=3)
    registry = ModelRegistry(tmp_path / "registry")
    artifact = make_artifact(seed=1)
    version = registry.publish(artifact, "unit")
    service = InfluenceService(
        registry.load("unit", version),
        graph,
        model_name="unit",
        model_version=version,
        config=ServiceConfig(max_inflight=8, queue_limit=32),
    )
    server = make_server(service, registry=registry)
    start_in_thread(server)
    try:
        yield _Client(server.server_address[1]), service, graph
    finally:
        server.shutdown_gracefully()
        server.server_close()


class TestEndpoints:
    def test_healthz_schema(self, stack):
        client, service, graph = stack
        status, payload, _ = client.get("/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["graph_nodes"] == graph.num_nodes
        assert payload["model"] == "unit" and payload["version"] == 1
        assert payload["privacy"]["epsilon"] == 4.0
        assert payload["privacy"]["delta"] == 1e-3

    def test_seeds_match_engine(self, stack):
        client, service, graph = stack
        expected = ScoringEngine(service.artifact).top_k_seeds(graph, 7)
        status, payload, _ = client.post("/v1/seeds", {"k": 7})
        assert status == 200
        assert payload["seeds"] == expected
        assert payload["privacy"]["epsilon"] == 4.0  # provenance on response

    def test_score_full_and_subset(self, stack):
        client, service, graph = stack
        status, full, _ = client.post("/v1/score", {})
        assert status == 200
        assert len(full["scores"]) == graph.num_nodes
        status, subset, _ = client.post("/v1/score", {"nodes": [2, 0, 5]})
        assert status == 200
        assert subset["scores"] == [full["scores"][i] for i in (2, 0, 5)]

    def test_spread_is_deterministic_over_repeats(self, stack):
        client, _, _ = stack
        payload = {"seeds": [0, 1, 2], "diffusion": "sis", "steps": 3}
        first = client.post("/v1/spread", payload)[1]["spread"]
        second = client.post("/v1/spread", payload)[1]["spread"]
        assert first == second

    def test_models_listing(self, stack):
        client, _, _ = stack
        status, payload, _ = client.get("/v1/models")
        assert status == 200
        assert payload["active"] == {"model": "unit", "version": 1}
        assert payload["models"]["unit"]["1"]["privacy"]["epsilon"] == 4.0

    def test_metrics_schema(self, stack):
        client, _, _ = stack
        client.post("/v1/seeds", {"k": 3})
        client.post("/v1/seeds", {"k": 3})
        status, payload, _ = client.get("/metrics")
        assert status == 200
        for key in ("counters", "latency", "engine", "queue_depth", "inflight"):
            assert key in payload
        seeds_latency = payload["latency"]["seeds"]
        for key in ("count", "mean_seconds", "p50_seconds", "p95_seconds",
                    "max_seconds"):
            assert key in seeds_latency
        assert seeds_latency["count"] == 2
        assert payload["engine"]["results"]["hits"] >= 1  # repeat request hit
        assert payload["counters"]["serve.requests.seeds"] == 2

    def test_metrics_report_the_process_usage(self, stack):
        client, _, _ = stack
        keys = {"minor_faults", "major_faults", "user_seconds", "system_seconds", "max_rss_kb"}
        faults = []
        for _ in range(3):
            client.post("/v1/score", {"nodes": None})
            status, payload, _ = client.get("/metrics")
            assert status == 200 and set(payload["process"]) == keys
            assert payload["process"]["max_rss_kb"] > 0
            faults.append(payload["process"]["minor_faults"])
        assert faults == sorted(faults)

    def test_unknown_path_404(self, stack):
        client, _, _ = stack
        assert client.get("/nope")[0] == 404
        assert client.post("/v1/nope", {})[0] == 404


class TestValidation:
    def test_bad_payloads_are_400(self, stack):
        client, _, graph = stack
        cases = [
            ("/v1/seeds", {}),                       # k missing
            ("/v1/seeds", {"k": 0}),                 # k out of range
            ("/v1/seeds", {"k": graph.num_nodes + 1}),
            ("/v1/seeds", {"k": "five"}),
            ("/v1/seeds", {"k": 3, "deadline_ms": -1}),
            ("/v1/score", {"nodes": []}),
            ("/v1/score", {"nodes": [99999]}),
            ("/v1/spread", {"seeds": [0], "diffusion": "sir"}),
            ("/v1/spread", {"seeds": [0], "num_simulations": 0}),
            ("/v1/spread", {}),
        ]
        for path, payload in cases:
            status, body, _ = client.post(path, payload)
            assert status == 400, (path, payload, body)
            assert "error" in body

    def test_invalid_json_body_is_400(self, stack):
        client, _, _ = stack
        req = urllib.request.Request(
            client.base + "/v1/seeds", data=b"{not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(req, timeout=10)
        assert excinfo.value.code == 400


class _SlowEngine(ScoringEngine):
    """Engine whose seed queries stall until released (and can sleep)."""

    def __init__(self, artifact, *, sleep_seconds=0.0, gate=None, **kwargs):
        super().__init__(artifact, **kwargs)
        self.sleep_seconds = sleep_seconds
        self.gate = gate

    def top_k_seeds(self, graph, k, **kwargs):
        if self.gate is not None:
            self.gate.wait(timeout=30)
        if self.sleep_seconds:
            time.sleep(self.sleep_seconds)
        return super().top_k_seeds(graph, k, **kwargs)


def _make_stack(tmp_path, *, engine=None, config=None):
    graph = barabasi_albert_graph(30, 2, rng=3)
    artifact = make_artifact()
    service = InfluenceService(
        artifact,
        graph,
        config=config or ServiceConfig(),
        engine=engine,
    )
    server = make_server(service)
    start_in_thread(server)
    return server, _Client(server.server_address[1]), service, graph


class TestDegradation:
    def test_deadline_exceeded_is_504(self, tmp_path):
        artifact = make_artifact()
        engine = _SlowEngine(artifact, sleep_seconds=0.2)
        server, client, service, _ = _make_stack(tmp_path, engine=engine)
        try:
            status, body, _ = client.post("/v1/seeds", {"k": 3, "deadline_ms": 50})
            assert status == 504
            assert "deadline" in body["error"]
            metrics = service.metrics()
            assert metrics["counters"]["serve.deadline_exceeded"] >= 1
        finally:
            server.shutdown_gracefully()
            server.server_close()

    def test_saturated_queue_is_503_with_retry_after(self, tmp_path):
        artifact = make_artifact()
        gate = threading.Event()
        engine = _SlowEngine(artifact, gate=gate)
        config = ServiceConfig(max_inflight=1, queue_limit=0, retry_after=2.0)
        server, client, service, _ = _make_stack(
            tmp_path, engine=engine, config=config
        )
        try:
            blocker_done = []

            def blocker():
                blocker_done.append(client.post("/v1/seeds", {"k": 3}))

            thread = threading.Thread(target=blocker)
            thread.start()
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                with service._admission_lock:
                    if service._inflight == 1:
                        break
                time.sleep(0.01)
            status, body, headers = client.post("/v1/seeds", {"k": 3})
            assert status == 503
            assert headers.get("Retry-After") == "2"
            assert "full" in body["error"]
            gate.set()
            thread.join(timeout=30)
            assert blocker_done[0][0] == 200
            metrics = service.metrics()
            assert metrics["counters"]["serve.rejected.saturated"] >= 1
        finally:
            gate.set()
            server.shutdown_gracefully()
            server.server_close()

    def test_draining_service_refuses_new_work(self, tmp_path):
        server, client, service, _ = _make_stack(tmp_path)
        try:
            service.close()
            status, _, _ = client.post("/v1/seeds", {"k": 3})
            assert status == 503
            assert client.get("/healthz")[1]["status"] == "draining"
        finally:
            server.shutdown_gracefully()
            server.server_close()


class TestConcurrentBurst:
    def test_32_request_burst_all_accounted_for(self, stack):
        """Acceptance: burst returns correct results, nonzero cache hits,
        and nothing is dropped without a 503."""
        client, service, graph = stack
        expected = ScoringEngine(service.artifact).top_k_seeds(graph, 5)
        responses = []
        lock = threading.Lock()
        barrier = threading.Barrier(32)

        def worker():
            barrier.wait(timeout=30)
            result = client.post("/v1/seeds", {"k": 5})
            with lock:
                responses.append(result)

        threads = [threading.Thread(target=worker) for _ in range(32)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)

        assert len(responses) == 32  # nothing vanished
        statuses = [status for status, _, _ in responses]
        assert all(status in (200, 503) for status in statuses)
        successes = [body for status, body, _ in responses if status == 200]
        assert successes, "burst must produce at least one success"
        for body in successes:
            assert body["seeds"] == expected
        metrics = service.metrics()
        engine_stats = metrics["engine"]
        cache_hits = (
            engine_stats["results"]["hits"]
            + engine_stats["scores"]["hits"]
            + engine_stats["coalesced"]
        )
        assert cache_hits > 0
        # every response the server gave is accounted: 200s + 5xx == issued
        counted = sum(
            count
            for name, count in metrics["counters"].items()
            if name.startswith("serve.responses.")
        )
        assert counted >= 32


def _raw_status(port: int, request: bytes) -> int:
    """Send raw bytes, return the status code of the first response line."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(request)
        sock.settimeout(10)
        data = b""
        while b"\r\n" not in data:
            chunk = sock.recv(65536)
            if not chunk:
                break
            data += chunk
    return int(data.split(b"\r\n", 1)[0].split(b" ")[1])


class TestFramingContract:
    """Regression tests: 413/411 body framing (previously 400 / desync)."""

    def test_handler_disables_nagle(self):
        # Without TCP_NODELAY keep-alive responses stalled ~40ms on the
        # client's delayed ACK (measured: 46 -> 7600 QPS warm).
        from repro.serving.http import _Handler

        assert _Handler.disable_nagle_algorithm is True

    def test_each_response_is_one_socket_write(self, stack, monkeypatch):
        client, _, _ = stack
        port = int(client.base.rsplit(":", 1)[1])
        writes = []
        sendall = socket.socket.sendall

        def counting_sendall(sock, data, *args):
            if sock.getsockname()[1] == port:  # the server's side
                writes.append(bytes(data))
            return sendall(sock, data, *args)

        monkeypatch.setattr(socket.socket, "sendall", counting_sendall)
        statuses = [
            client.get("/healthz")[0],
            client.get("/metrics")[0],
            client.get("/nope")[0],
            client.post("/v1/seeds", {"k": 3})[0],
            client.post("/v1/score", {"nodes": None})[0],
        ]
        assert statuses == [200, 200, 404, 200, 200]
        assert len(writes) == len(statuses)
        for write in writes:
            head, body = write.split(b"\r\n\r\n", 1)
            assert head.startswith(b"HTTP/1.1 ")
            assert b"Content-Length: %d" % len(body) in head
            json.loads(body)

    def test_interim_100_continue_is_sent_before_the_body(self, stack):
        client, _, _ = stack
        port = int(client.base.rsplit(":", 1)[1])
        body = b'{"k": 2}'
        with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
            sock.sendall(
                b"POST /v1/seeds HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\n"
                b"Content-Length: %d\r\n\r\n" % len(body)
            )
            assert sock.recv(65536).startswith(b"HTTP/1.1 100 ")
            sock.sendall(body)
            assert sock.recv(65536).startswith(b"HTTP/1.1 200 ")

    def test_oversized_body_is_413_not_400(self, stack):
        client, _, _ = stack
        port = int(client.base.rsplit(":", 1)[1])
        huge = 5 * 1024 * 1024  # over MAX_BODY_BYTES; body never sent
        status = _raw_status(
            port,
            b"POST /v1/seeds HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: %d\r\n\r\n" % huge,
        )
        assert status == 413

    def test_chunked_transfer_encoding_is_411(self, stack):
        client, _, _ = stack
        port = int(client.base.rsplit(":", 1)[1])
        status = _raw_status(
            port,
            b"POST /v1/seeds HTTP/1.1\r\nHost: x\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n"
            b"8\r\n{\"k\": 3}\r\n0\r\n\r\n",
        )
        assert status == 411

    def test_post_without_content_length_is_411(self, stack):
        # Previously treated as an empty body: with a real body following,
        # the unread bytes desynced the next keep-alive request.
        client, _, _ = stack
        port = int(client.base.rsplit(":", 1)[1])
        status = _raw_status(
            port, b"POST /v1/seeds HTTP/1.1\r\nHost: x\r\n\r\n"
        )
        assert status == 411

    def test_invalid_content_length_is_400(self, stack):
        client, _, _ = stack
        port = int(client.base.rsplit(":", 1)[1])
        status = _raw_status(
            port,
            b"POST /v1/seeds HTTP/1.1\r\nHost: x\r\nContent-Length: ab\r\n\r\n",
        )
        assert status == 400

    def test_client_disconnect_mid_response_does_not_wedge_server(self, stack):
        client, _, _ = stack
        port = int(client.base.rsplit(":", 1)[1])
        # Ask for the full score vector, then hang up without reading.
        with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
            body = b'{"nodes": null}'
            sock.sendall(
                b"POST /v1/score HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
            )
        # The handler thread must survive; the server keeps answering.
        assert client.get("/healthz")[0] == 200


class TestQueryStringRouting:
    """Regression: exact-match routing 404'd any GET with a query string."""

    def test_healthz_with_query(self, stack):
        client, _, _ = stack
        status, payload, _ = client.get("/healthz?probe=1")
        assert status == 200 and payload["status"] == "ok"

    def test_metrics_with_query(self, stack):
        client, _, _ = stack
        status, payload, _ = client.get("/metrics?format=json")
        assert status == 200 and "counters" in payload

    def test_post_with_query(self, stack):
        client, _, _ = stack
        status, payload, _ = client.post("/v1/seeds?trace=1", {"k": 3})
        assert status == 200 and len(payload["seeds"]) == 3

    def test_unknown_path_with_query_still_404(self, stack):
        client, _, _ = stack
        assert client.get("/nope?x=1")[0] == 404


class TestParameterValidationRegressions:
    """NaN/inf deadlines and bool-typed ints must be clean 400s."""

    def test_nan_deadline_is_400(self, stack):
        # json.dumps(nan) -> "NaN", which the server's json.loads accepts;
        # NaN then passed `<= 0` and poisoned the semaphore timeout.
        client, _, _ = stack
        status, body, _ = client.post(
            "/v1/seeds", {"k": 3, "deadline_ms": float("nan")}
        )
        assert status == 400 and "finite" in body["error"]

    def test_inf_deadline_is_400(self, stack):
        client, _, _ = stack
        status, body, _ = client.post(
            "/v1/seeds", {"k": 3, "deadline_ms": float("inf")}
        )
        assert status == 400 and "finite" in body["error"]

    def test_bool_deadline_is_400(self, stack):
        client, _, _ = stack
        status, _, _ = client.post("/v1/seeds", {"k": 3, "deadline_ms": True})
        assert status == 400

    def test_bool_tie_break_seed_is_400(self, stack):
        # bool is an int subclass: `true` passed isinstance(rng, int) and
        # was silently cached as seed 1.
        client, _, _ = stack
        status, body, _ = client.post(
            "/v1/seeds", {"k": 3, "tie_break_seed": True}
        )
        assert status == 400 and "tie_break_seed" in body["error"]

    def test_bool_spread_params_are_400(self, stack):
        client, _, _ = stack
        for field in ("steps", "num_simulations", "seed"):
            status, body, _ = client.post(
                "/v1/spread", {"seeds": [0, 1], field: True}
            )
            assert status == 400, (field, body)


class TestGraphMutationEndpoint:
    def test_add_then_remove_round_trip(self, stack):
        client, service, graph = stack
        before = client.get("/healthz")[1]
        assert not graph.has_edge(0, 39)
        status, added, _ = client.post(
            "/v1/graph/edges", {"op": "add", "edges": [[0, 39]]}
        )
        assert status == 200
        # graph_edges counts directed arcs: one undirected edge adds two.
        assert added["graph_edges"] == before["graph_edges"] + 2
        assert added["graph_fingerprint"] != added["old_fingerprint"]
        assert added["old_fingerprint"] == before["graph_fingerprint"]
        # every subsequent response carries the new fingerprint
        health = client.get("/healthz")[1]
        assert health["graph_fingerprint"] == added["graph_fingerprint"]
        assert health["graph_mutations"] == 1
        status, removed, _ = client.post(
            "/v1/graph/edges", {"op": "remove", "edges": [[0, 39]]}
        )
        assert status == 200
        assert removed["graph_edges"] == before["graph_edges"]

    def test_scores_reflect_mutation(self, stack):
        client, _, graph = stack
        baseline = client.post("/v1/score", {"nodes": [5]})[1]
        # Attach node 5 to every other node: its degree features change,
        # so its served score must change too — no stale graph state.
        new_edges = [
            [5, v] for v in range(graph.num_nodes) if v != 5
            and not graph.has_edge(5, v)
        ]
        status, mutated, _ = client.post(
            "/v1/graph/edges", {"op": "add", "edges": new_edges}
        )
        assert status == 200
        after = client.post("/v1/score", {"nodes": [5]})[1]
        assert after["graph_fingerprint"] == mutated["graph_fingerprint"]
        assert after["scores"] != baseline["scores"]

    def test_mutation_validation(self, stack):
        client, _, _ = stack
        cases = [
            {"op": "upsert", "edges": [[0, 1]]},
            {"op": "add"},
            {"op": "add", "edges": []},
            {"op": "add", "edges": [[0, 1, 2]]},
            {"op": "add", "edges": [[0, True]]},
            {"op": "add", "edges": [[0, 1]], "weights": [0.5, 0.5]},
            {"op": "remove", "edges": [[0, 1]], "weights": [0.5]},
            {"op": "add", "edges": [[0, 99999]]},        # endpoint range
            {"op": "remove", "edges": [[0, 39]]},        # edge not present
        ]
        for payload in cases:
            status, body, _ = client.post("/v1/graph/edges", payload)
            assert status == 400, (payload, body)
            assert "error" in body

    @pytest.mark.parametrize("weight", [float("nan"), "nan", "NaN"])
    def test_nan_weight_is_refused_and_graph_unchanged(self, stack, weight):
        client, service, graph = stack
        before = client.get("/healthz")[1]["graph_fingerprint"]
        status, body, _ = client.post(
            "/v1/graph/edges", {"op": "add", "edges": [[0, 39]], "weights": [weight]}
        )
        assert status == 400, body
        assert "finite" in body["error"]
        assert client.get("/healthz")[1]["graph_fingerprint"] == before
        assert service.graph is graph
