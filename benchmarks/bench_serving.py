"""Micro-benchmarks of the serving layer's cache tiers — and, in script
mode, the replica trajectory (``BENCH_serving.json``).

The pytest-benchmark functions isolate one cost tier of
:class:`repro.serving.engine.ScoringEngine` so the value of each cache
shows up as a timing gap:

* cold score — fresh engine per round: featurise + one GNN forward pass.
* warm score — same engine, same graph: a pure cache lookup.
* cold vs warm top-k — the result LRU on top of the score cache.
* spread estimate — the Monte-Carlo tier, cached by full request tuple.

Run as a plain script (``PYTHONPATH=src python benchmarks/bench_serving.py
[--tiny]``) it additionally measures the tentpole arms the way
``BENCH_training.json`` tracks training:

* cold vs warm single-request latency (in-process engine);
* warm-cache HTTP QPS (p50/p95) against 1 and 4 replicas, measured by
  client *processes* holding persistent connections (a threaded client
  would serialise on the GIL and hide the replica speedup).

One regression gate: 4-replica warm QPS must be >= 2x single-replica
(enforced only on machines with >= 4 CPU cores — four workers cannot beat
one without spare cores; the core count is recorded either way, like the
training bench's worker gate).

All randomness is seeded through :func:`repro.utils.rng.bench_seed`, so the
graph, the model weights, and the served numbers are identical run to run.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import socket
import statistics
import sys
import time

import numpy as np

from repro.gnn.models import build_gnn
from repro.graphs.generators import barabasi_albert_graph
from repro.serving.engine import ScoringEngine
from repro.serving.registry import ModelArtifact, PrivacyProvenance
from repro.utils.rng import bench_seed


def _artifact() -> ModelArtifact:
    model = build_gnn("gcn", hidden_features=16, num_layers=2, rng=bench_seed())
    return ModelArtifact(
        model=model,
        privacy=PrivacyProvenance(
            epsilon=4.0,
            delta=1e-3,
            sigma=0.7,
            steps=30,
            max_occurrences=4,
            num_subgraphs=64,
            clip_bound=1.0,
        ),
        method="PrivIM*",
    )


def _graph():
    return barabasi_albert_graph(2000, 5, rng=bench_seed())


def test_bench_score_cold(benchmark):
    """Featurisation + forward pass with every cache empty."""
    artifact = _artifact()
    graph = _graph()
    fingerprint = ScoringEngine(artifact).fingerprint(graph)

    def cold():
        return ScoringEngine(artifact).scores(graph, fingerprint=fingerprint)

    scores = benchmark(cold)
    assert scores.shape == (graph.num_nodes,)


def test_bench_score_warm(benchmark):
    """The same query against a warmed engine — a cache lookup."""
    engine = ScoringEngine(_artifact())
    graph = _graph()
    fingerprint = engine.fingerprint(graph)
    engine.scores(graph, fingerprint=fingerprint)
    scores = benchmark(engine.scores, graph, fingerprint=fingerprint)
    assert scores.shape == (graph.num_nodes,)
    assert engine.stats()["forward_passes"] == 1


def test_bench_fingerprint(benchmark):
    """The per-request overhead every cached path still pays."""
    engine = ScoringEngine(_artifact())
    graph = _graph()
    digest = benchmark(engine.fingerprint, graph)
    assert len(digest) == 64


def test_bench_top_k_cold(benchmark):
    artifact = _artifact()
    graph = _graph()

    def cold():
        return ScoringEngine(artifact).top_k_seeds(graph, 50)

    seeds = benchmark(cold)
    assert len(seeds) == 50


def test_bench_top_k_warm(benchmark):
    engine = ScoringEngine(_artifact())
    graph = _graph()
    expected = engine.top_k_seeds(graph, 50)
    seeds = benchmark(engine.top_k_seeds, graph, 50)
    assert seeds == expected
    assert engine.stats()["results"]["hits"] > 0


def test_bench_spread_cached(benchmark):
    """Spread replay: the Monte-Carlo cost paid once, then LRU-served."""
    engine = ScoringEngine(_artifact())
    graph = _graph()
    seeds = engine.top_k_seeds(graph, 10)
    first = engine.estimate_spread(graph, seeds, model="ic", num_simulations=50)
    spread = benchmark(
        engine.estimate_spread, graph, seeds, model="ic", num_simulations=50
    )
    assert spread == first
    assert np.isfinite(spread)


# ---------------------------------------------------------------------- #
# Script mode: publish BENCH_serving.json
# ---------------------------------------------------------------------- #

#: Shared with forked replica workers — set in ``main`` before any
#: :class:`ReplicaSet` spawns, inherited by the children via fork.
_SCRIPT_STATE: dict = {}


def _percentile(samples: list[float], quantile: float) -> float | None:
    if not samples:
        return None
    ordered = sorted(samples)
    index = min(len(ordered) - 1, round(quantile * (len(ordered) - 1)))
    return ordered[index]


def _latency_summary(samples: list[float]) -> dict:
    return {
        "samples": len(samples),
        "p50_ms": round(1000.0 * _percentile(samples, 0.50), 4) if samples else None,
        "p95_ms": round(1000.0 * _percentile(samples, 0.95), 4) if samples else None,
        "mean_ms": round(1000.0 * statistics.fmean(samples), 4) if samples else None,
    }


def _warm_replica_factory():
    """Worker factory for the QPS arm: build a service and pre-warm its
    caches with the exact request the clients will hammer, so *every*
    replica starts warm (with SO_REUSEPORT the kernel balances
    connections, so warming over HTTP could miss a replica)."""
    from repro.serving.service import InfluenceService, ServiceConfig

    service = InfluenceService(
        _SCRIPT_STATE["artifact"],
        _SCRIPT_STATE["graph"],
        config=ServiceConfig(max_inflight=32, queue_limit=256),
    )
    service.seeds({"k": _SCRIPT_STATE["k"]})
    return service, None


def _read_response(sock: socket.socket, buffer: bytes) -> tuple[bytes, bytes]:
    """Read one HTTP response off a keep-alive socket; return (status line,
    unconsumed bytes)."""
    while b"\r\n\r\n" not in buffer:
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection mid-response")
        buffer += chunk
    head, _, buffer = buffer.partition(b"\r\n\r\n")
    length = 0
    for line in head.split(b"\r\n")[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value.strip())
    while len(buffer) < length:
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection mid-body")
        buffer += chunk
    return head.split(b"\r\n", 1)[0], buffer[length:]


def _qps_client(port: int, body: bytes, duration: float, queue) -> None:
    """One client process: a persistent connection issuing back-to-back
    warm requests for ``duration`` seconds.  Processes, not threads — a
    threaded client serialises on the GIL and hides the replica speedup."""
    request = (
        b"POST /v1/seeds HTTP/1.1\r\n"
        b"Host: bench\r\nContent-Type: application/json\r\n"
        b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n" + body
    )
    latencies: list[float] = []
    sock = socket.create_connection(("127.0.0.1", port), timeout=30)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    try:
        buffer = b""
        deadline = time.monotonic() + duration
        while time.monotonic() < deadline:
            started = time.perf_counter()
            sock.sendall(request)
            status, buffer = _read_response(sock, buffer)
            if b" 200 " not in status + b" ":
                raise RuntimeError(f"unexpected response: {status!r}")
            latencies.append(time.perf_counter() - started)
    finally:
        sock.close()
    queue.put(latencies)


def _measure_cold_warm(artifact, graph, *, rounds: int, warm_iters: int) -> dict:
    fingerprint = ScoringEngine(artifact).fingerprint(graph)
    cold: list[float] = []
    for _ in range(rounds):
        engine = ScoringEngine(artifact)
        started = time.perf_counter()
        engine.scores(graph, fingerprint=fingerprint)
        cold.append(time.perf_counter() - started)
    engine = ScoringEngine(artifact)
    engine.scores(graph, fingerprint=fingerprint)
    warm: list[float] = []
    for _ in range(warm_iters):
        started = time.perf_counter()
        engine.scores(graph, fingerprint=fingerprint)
        warm.append(time.perf_counter() - started)
    return {"cold": _latency_summary(cold), "warm": _latency_summary(warm)}


def _measure_replica_qps(replicas: int, *, clients: int, duration: float) -> dict:
    from repro.serving.replica import ReplicaConfig, ReplicaSet

    body = json.dumps({"k": _SCRIPT_STATE["k"]}).encode("utf-8")
    context = multiprocessing.get_context("fork")
    with ReplicaSet(
        _warm_replica_factory, ReplicaConfig(replicas=replicas)
    ) as replica_set:
        queue = context.Queue()
        workers = [
            context.Process(
                target=_qps_client,
                args=(replica_set.port, body, duration, queue),
                daemon=True,
            )
            for _ in range(clients)
        ]
        started = time.perf_counter()
        for worker in workers:
            worker.start()
        latencies: list[float] = []
        for _ in workers:
            latencies.extend(queue.get(timeout=duration + 60))
        for worker in workers:
            worker.join(timeout=30)
        elapsed = time.perf_counter() - started
        mode = replica_set.stats()["mode"]
    return {
        "replicas": replicas,
        "mode": mode,
        "clients": clients,
        "duration_s": round(elapsed, 3),
        "requests": len(latencies),
        "qps": round(len(latencies) / elapsed, 2),
        "latency": _latency_summary(latencies),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Serving benchmark: cache tiers and replicas."
    )
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="CI-sized run: small graph, short QPS windows.",
    )
    parser.add_argument(
        "--output",
        default="BENCH_serving.json",
        help="where to write the summary JSON",
    )
    args = parser.parse_args(argv)

    graph_nodes = 300 if args.tiny else 2000
    duration = 1.0 if args.tiny else 2.5
    clients = 2 if args.tiny else 4
    cpu_count = os.cpu_count() or 1

    artifact = _artifact()
    graph = barabasi_albert_graph(graph_nodes, 5, rng=bench_seed())
    _SCRIPT_STATE.update({"artifact": artifact, "graph": graph, "k": 5})

    print(f"graph: {graph_nodes} nodes | cpu_count={cpu_count}", flush=True)
    print("arm 1/2: cold vs warm single-request latency", flush=True)
    cache_tiers = _measure_cold_warm(
        artifact, graph, rounds=3 if args.tiny else 5,
        warm_iters=50 if args.tiny else 200,
    )
    print("arm 2/2: warm-cache HTTP QPS, 1 vs 4 replicas", flush=True)
    qps_arms = {
        "replicas1": _measure_replica_qps(1, clients=clients, duration=duration),
        "replicas4": _measure_replica_qps(4, clients=clients, duration=duration),
    }

    ratio = round(qps_arms["replicas4"]["qps"] / qps_arms["replicas1"]["qps"], 3)
    gates = {
        "replicas4_vs_1": {
            "threshold": 2.0,
            "ratio": ratio,
            "enforced": cpu_count >= 4,
            "passed": ratio >= 2.0,
        },
    }
    if cpu_count < 4:
        gates["replicas4_vs_1"]["skip_reason"] = (
            f"requires >= 4 CPU cores, machine has {cpu_count}"
        )

    failures = [
        name
        for name, gate in gates.items()
        if gate["enforced"] and not gate["passed"]
    ]
    summary = {
        "benchmark": "serving",
        "mode": "tiny" if args.tiny else "full",
        "seed": bench_seed(),
        "cpu_count": cpu_count,
        "graph_nodes": graph_nodes,
        "cache_tiers": cache_tiers,
        "replica_qps": qps_arms,
        "regression_gates": gates,
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(summary, indent=2) + "\n")
    print(json.dumps(summary, indent=2), flush=True)
    if failures:
        for name in failures:
            print(f"REGRESSION GATE FAILED: {name}", flush=True)
        return 1
    print(f"wrote {args.output}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
