"""The ``serve-mutate`` workload: live graph writes, each followed by reads.

Set-up trains PrivIM* on full-scale lastfm with a fixed seed (the model's
quality spread across seeds is not this workload's subject; every run
serves the same model) and exports the artifact; a launcher process
(:mod:`serve_launcher`) serves it and signals readiness on its stdout.

One op is a *cycle* of four requests on one keep-alive connection, each
sent when the previous one is answered: a ``/v1/graph/edges`` add or
remove, which changes the graph fingerprint; a ``/v1/seeds`` read, which
pays the full forward pass on the new graph (the cold path); then warm
``/v1/score`` and ``/v1/spread`` reads.  ``PERIOD`` cycle positions add
and then remove ``PERIOD // 2`` edges drawn from the workload seed, so
the graph returns to its start after every period and the cycle at one
position repeats the same work with the same answers: the warm-up period
records them, and every later cycle must reproduce them.  As in the batch
workloads, the time metrics are each position's fastest cycle, averaged
over the positions and scaled by the host's speed, measured by the client
between cycles on the CPU it shares with the server.
"""

from __future__ import annotations

import json
import os
import resource
import select
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager

import numpy as np

import repro.datasets as datasets
from repro import PrivIMConfig, PrivIMStar

from common import (
    HostSpeed,
    cpu_ticks,
    digest,
    fastest,
    median,
    peak_rss_mb,
    spread_summary,
    steal_share,
)
from layers import CLIENT_TARGETS, PER_LAYER, per_call_ms
from loadgen import Client, Request
from runner import MIN_ROUNDS, SETUP_REPEATS, Report, repeated_setup
from tracer import Tracer, format_tree, summarize
from workloads import EPSILON, Context, privacy_problems, result_outcome

PERIOD = 8  # cycle positions: four edges added, then removed
MODEL_SEED = 0  # every run serves the same model; --seed drives the traffic
K = 50
SCORED_NODES = 8
HERE = os.path.dirname(os.path.abspath(__file__))
#: lastfm at a quarter of its size (1.9k nodes): a cold forward pass of
#: ~12 ms instead of ~45 ms.  On the shared host, stretches of contention
#: leave gaps that a 5 ms loop's fastest run finds but a 45 ms op's
#: seldom does: in one busy set full-scale cycles read twice their quiet
#: time while the reference loop read 1.1-1.6x.
SERVE_SCALE = 0.25


class Launcher:
    """The server process, spoken to one JSON line at a time."""

    def __init__(self, artifact: str, scale: float, trace: bool) -> None:
        self.process = subprocess.Popen(
            [
                sys.executable,
                os.path.join(HERE, "serve_launcher.py"),
                "--artifact",
                artifact,
                "--scale",
                repr(scale),
                "--trace",
                str(int(trace)),
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            bufsize=0,
        )
        self._buffer = b""
        try:
            self.ready = self._line(timeout=120.0)
        except BaseException:
            self.kill()
            raise

    def _line(self, timeout: float) -> dict:
        deadline = time.monotonic() + timeout
        while b"\n" not in self._buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError("server launcher did not answer")
            readable, _, _ = select.select([self.process.stdout], [], [], remaining)
            if readable:
                chunk = os.read(self.process.stdout.fileno(), 1 << 16)
                if not chunk:
                    raise ConnectionError("server launcher exited")
                self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return json.loads(line)

    def command(self, text: str, timeout: float = 30.0) -> dict:
        self.process.stdin.write((text + "\n").encode("ascii"))
        self.process.stdin.flush()
        return self._line(timeout)

    def cpu_seconds(self) -> float:
        return self.command("stats")["cpu_s"]

    def stop(self) -> dict:
        try:
            final = self.command("stop")
            self.process.wait(timeout=30.0)
            return final
        finally:
            self.kill()

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait(timeout=30.0)
        for stream in (self.process.stdin, self.process.stdout):
            stream.close()


def _absent_edges(graph, generator, count: int) -> list[list[int]]:
    edges: list[list[int]] = []
    while len(edges) < count:
        u, v = (int(x) for x in generator.integers(0, graph.num_nodes, size=2))
        if u == v or graph.has_edge(u, v) or graph.has_edge(v, u) or [u, v] in edges:
            continue
        edges.append([u, v])
    return edges


def cycle_templates(ctx: Context, graph, top_seeds: list[int]) -> list[list[Request]]:
    """The ``PERIOD`` cycles' requests, derived from the workload seed alone."""
    generator = np.random.default_rng([ctx.seed, 0x5E4E])
    edges = _absent_edges(graph, generator, PERIOD // 2)
    templates = []
    for position in range(PERIOD):
        op = "add" if position < PERIOD // 2 else "remove"
        nodes = generator.choice(graph.num_nodes, size=SCORED_NODES, replace=False)
        templates.append(
            [
                Request(
                    "mutate",
                    "/v1/graph/edges",
                    {"op": op, "edges": [edges[position % (PERIOD // 2)]]},
                ),
                Request("seeds", "/v1/seeds", {"k": K, "tie_break_seed": 1}),
                Request("score", "/v1/score", {"nodes": [int(n) for n in nodes]}),
                Request(
                    "spread",
                    "/v1/spread",
                    {"seeds": top_seeds, "seed": int(generator.integers(1, 5))},
                ),
            ]
        )
    return templates


def _fresh(template: list[Request]) -> list[Request]:
    return [Request(r.kind, r.path, r.body) for r in template]


def _answers(cycle: list[Request]) -> list:
    """The parts of a cycle's answers that must repeat at its position."""
    return [
        {
            key: (request.response or {}).get(key)
            for key in ("graph_fingerprint", "seeds", "scores", "spread")
        }
        for request in cycle
    ]


class ResponseChecker:
    """Checks each answer: 200, the served (ε, δ), well-formed payloads,
    and a fingerprint chain that changes at every mutation."""

    def __init__(self, privacy: dict, num_nodes: int, fingerprint: str) -> None:
        self.privacy = privacy
        self.num_nodes = num_nodes
        self.fingerprint = fingerprint

    def problems(self, request: Request) -> list[str]:
        if request.status != 200 or not isinstance(request.response, dict):
            return [f"{request.kind}: HTTP {request.status}"]
        body = request.response
        privacy = body.get("privacy") or {}
        problems = []
        for key in ("epsilon", "delta"):
            if privacy.get(key) != self.privacy.get(key):
                problems.append(f"{request.kind}: {key} provenance {privacy.get(key)!r}")
        if request.kind == "seeds":
            seeds = body.get("seeds") or []
            k = request.body["k"]
            if len(seeds) != k or len(set(seeds)) != k:
                problems.append(f"seeds: expected {k} distinct seeds")
            elif not all(0 <= s < self.num_nodes for s in seeds):
                problems.append("seeds: id out of range")
        elif request.kind == "score":
            scores = body.get("scores") or []
            if len(scores) != len(request.body["nodes"]) or not np.all(np.isfinite(scores)):
                problems.append("score: wrong or non-finite scores")
        elif request.kind == "spread":
            if not body.get("spread", 0) >= len(request.body["seeds"]):
                problems.append("spread: below the seed count")
        elif request.kind == "mutate":
            new = body.get("graph_fingerprint")
            if body.get("old_fingerprint") != self.fingerprint or new == self.fingerprint:
                problems.append("mutate: graph_fingerprint did not move from the last one")
            self.fingerprint = new
        return problems


def _build(ctx: Context) -> dict:
    graph = datasets.load_dataset("lastfm", scale=min(SERVE_SCALE, ctx.scale))
    pipeline = PrivIMStar(PrivIMConfig(epsilon=EPSILON, rng=MODEL_SEED))
    result = pipeline.fit(graph)
    directory = tempfile.mkdtemp(prefix="artifact-", dir=ctx.workdir)
    path = result.export_artifact(os.path.join(directory, "model"))
    return {"graph": graph, "result": result, "artifact": path}


def _engine_counts(metrics: dict) -> dict:
    engine = metrics["engine"]
    return {
        "forward_passes": engine["forward_passes"],
        "hits": engine["scores"]["hits"],
        "misses": engine["scores"]["misses"],
    }


@contextmanager
def _one_cpu():
    """Restrict this process, and the server it starts, to one CPU; yields
    that CPU (None where affinity is unsupported).

    Client and server take turns, never run at once: on one CPU the
    server's wake-up on each request is local instead of waking another,
    idle virtual CPU, which under host contention took up to a
    millisecond."""
    if not hasattr(os, "sched_setaffinity"):
        yield None
        return
    previous = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(previous)})
    try:
        yield min(previous)
    finally:
        os.sched_setaffinity(0, previous)


def run_serve(ctx: Context, import_seconds: float) -> Report:
    tracer = Tracer(CLIENT_TARGETS)
    state, builds = repeated_setup(_build, ctx, tracer)
    # Problems of the served model or of the warm-up fail every timed
    # cycle: each answer comes from that model.
    setup_problems = [
        f"model: {p}" for p in privacy_problems(result_outcome(state["result"], EPSILON))
    ]
    graph = state["graph"]
    expected: dict[int, list] = {}
    latency = {position: [] for position in range(PERIOD)}
    cpu = {position: [] for position in range(PERIOD)}
    traced_latency = {position: [] for position in range(PERIOD)}
    problems: list[str] = []
    attempted = failed = 0

    with _one_cpu() as pinned:
        started = time.perf_counter()
        launcher = Launcher(state["artifact"], min(SERVE_SCALE, ctx.scale), ctx.trace)
        try:
            launch_seconds = time.perf_counter() - started
            with Client(launcher.ready["port"]) as client:
                started = time.perf_counter()
                health = client.call(Request("health", "/healthz", None)).response or {}
                checker = ResponseChecker(
                    health.get("privacy") or {}, graph.num_nodes, health.get("graph_fingerprint")
                )
                if checker.privacy.get("epsilon") != state["result"].epsilon:
                    setup_problems.append("served epsilon differs from the trained model's")
                # The warm-up: one read of each kind, then one period of
                # cycles, whose answers every later cycle must repeat.  The
                # first forwards after start run up to 3x slower while the
                # allocator grows.
                try:
                    warm = client.call(Request("seeds", "/v1/seeds", {"k": K}))
                    setup_problems += [f"warm-up: {p}" for p in checker.problems(warm)]
                    top_seeds = list(warm.response["seeds"])
                    templates = cycle_templates(ctx, graph, top_seeds)
                    for position, template in enumerate(templates):
                        cycle = [client.call(r) for r in _fresh(template)]
                        for request in cycle:
                            setup_problems += [
                                f"warm-up: {p}" for p in checker.problems(request)
                            ]
                        expected[position] = _answers(cycle)
                except Exception as error:  # noqa: BLE001 - a broken warm-up fails the run's cycles
                    traceback.print_exc(file=sys.stderr)
                    setup_problems.append(f"warm-up raised {type(error).__name__}: {error}")
                    templates = cycle_templates(ctx, graph, list(range(min(K, graph.num_nodes))))
                warmup_seconds = time.perf_counter() - started

                if ctx.trace:
                    launcher.command("reset")
                before = _engine_counts(client.call(Request("metrics", "/metrics", None)).response)
                host = HostSpeed()
                ticks = cpu_ticks()
                traced_rounds = 0
                started = time.perf_counter()
                while (
                    time.perf_counter() - started < ctx.seconds
                    or attempted < MIN_ROUNDS * PERIOD
                ):
                    position = attempted % PERIOD
                    traced = ctx.trace and (attempted // PERIOD) % 2 == 1
                    if ctx.trace and position == 0:
                        launcher.command("trace on" if traced else "trace off")
                        traced_rounds += traced
                    attempted += 1
                    cycle = _fresh(templates[position])
                    server_cpu = launcher.cpu_seconds()
                    cycle_started = time.perf_counter()
                    for request in cycle:
                        client.call(request)
                    elapsed = time.perf_counter() - cycle_started
                    server_cpu = launcher.cpu_seconds() - server_cpu
                    host.sample()
                    if ctx.tamper is not None:
                        for request in cycle:
                            ctx.tamper(request)
                    cycle_problems = [p for r in cycle for p in checker.problems(r)]
                    if expected.get(position) != _answers(cycle):
                        cycle_problems.append("answers differ from the warm-up's at this position")
                    if cycle_problems or setup_problems:
                        failed += 1
                        problems += [f"cycle {attempted}: {p}" for p in cycle_problems]
                    elif traced:
                        traced_latency[position].append(elapsed)
                    else:
                        latency[position].append(elapsed)
                        cpu[position].append(server_cpu)
                measured = time.perf_counter() - started
                steal = steal_share(ticks, cpu_ticks())
                if ctx.trace:
                    launcher.command("trace off")
                after = _engine_counts(client.call(Request("metrics", "/metrics", None)).response)
                profile_data = launcher.command("profile") if ctx.trace else None
                final_health = client.call(Request("health", "/healthz", None)).response
        finally:
            final = launcher.stop() if launcher.process.poll() is None else {"maxrss_kb": 0}

    problems = setup_problems + problems
    mutations = attempted + PERIOD
    if final_health.get("graph_mutations") != mutations:
        problems.append("server counted a different number of mutations")
    if final_health.get("graph_fingerprint") != checker.fingerprint:
        problems.append("final graph fingerprint is not the last mutation's")

    setup_seconds = import_seconds + median(builds) + launch_seconds + warmup_seconds
    metrics = {
        "setup_s": setup_seconds * host.scale(),
        "latency_scaled_ms": 1000.0 * fastest(latency) * host.scale(),
        # The server's CPU only: the client's is the benchmark's own work.
        # The reference runs on the CPU the server is pinned to.
        "cpu_scaled_ms": 1000.0 * fastest(cpu) * host.cpu_scale(),
        "peak_rss_mb": max(peak_rss_mb(), final["maxrss_kb"] / 1024.0),
        "ok_share": (attempted - failed) / attempted,
    }
    layers, profile = {}, []
    if ctx.trace:
        traced_cycles = sum(len(v) for v in traced_latency.values())
        layers, profile = _serve_layers(
            tracer, profile_data, traced_latency, traced_cycles, latency, before, after, attempted
        )
    record = {
        "workload": "serve-mutate",
        "seed": ctx.seed,
        "seconds": ctx.seconds,
        "measured_s": measured,
        "trace": ctx.trace,
        "ops_per_run": attempted,
        "requests_per_op": len(templates[0]),
        "pinned_cpu": pinned,
        "setup_repeats": SETUP_REPEATS,
        "setup_build_s": builds,
        "launch_s": launch_seconds,
        "rss_mb": {
            "client": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "server": final["maxrss_kb"] / 1024.0,
        },
        "warmup_s": warmup_seconds,
        "import_s": import_seconds,
        "setup_unscaled_s": setup_seconds,
        "latency_min_ms": 1000.0 * fastest(latency),
        "cpu_min_ms": 1000.0 * fastest(cpu),
        "host_speed": host.record(),
        "latency": spread_summary(latency),
        "min_ms_per_position": [
            round(1000.0 * min(v), 3) if v else None for v in latency.values()
        ],
        "median_ms_per_position": [
            round(1000.0 * median(v), 3) if v else None for v in latency.values()
        ],
        "forward_passes": after["forward_passes"] - before["forward_passes"],
        "shard_transport": "none",
        "steal_share": steal,
        "trace_targets_missing": sorted(".".join(t) for t in tracer.missing),
    }
    return Report(
        metrics=metrics,
        layers=layers,
        attempted=attempted,
        failed=failed,
        correct=not problems,
        record=record,
        digest=digest([expected.get(position) for position in range(PERIOD)]),
        profile=profile,
        problems=problems,
    )


def _serve_layers(
    tracer, profile_data, traced_latency, traced_cycles, latency, before, after, attempted
):
    by = profile_data["by_name"]
    count = max(traced_cycles, 1)

    def per_cycle(name: str) -> float:
        entry = by.get(name)
        return 1000.0 * entry["total_s"] / count if entry else 0.0

    service_ms = per_cycle("serving.service") + per_cycle("serving.mutate")
    client_ms = 1000.0 * sum(sum(v) for v in traced_latency.values()) / count
    http_ms = per_cycle("serving.http")
    lookups = (after["hits"] - before["hits"]) + (after["misses"] - before["misses"])
    setup = summarize(tracer.spans, root_name="setup")["by_name"]
    untraced_fastest = fastest(latency)
    layers = {name: 0.0 for name, _ in PER_LAYER}
    layers.update(
        {
            "graphs.generate_ms": per_call_ms(setup, "graphs.generate"),
            "gnn.conv_forward_ms": per_cycle("gnn.conv_forward"),
            "im.spread_ms": per_cycle("im.spread"),
            "serving.forward_ms": per_call_ms(by, "serving.forward"),
            "serving.forward_passes": (after["forward_passes"] - before["forward_passes"])
            / attempted,
            "serving.score_hit_share": (after["hits"] - before["hits"]) / lookups if lookups else 0.0,
            "serving.mutate_ms": per_call_ms(by, "serving.mutate"),
            "serving.fingerprint_ms": per_call_ms(by, "serving.fingerprint"),
            "serving.service_ms": service_ms,
            "serving.http_ms": client_ms - service_ms,
            "trace.dark_share": max(0.0, 1.0 - http_ms / client_ms) if client_ms else 0.0,
            "trace.overhead_share": (
                fastest(traced_latency) / untraced_fastest - 1.0 if untraced_fastest else 0.0
            ),
        }
    )
    profile = format_tree(profile_data["tree"], count)
    return layers, profile
