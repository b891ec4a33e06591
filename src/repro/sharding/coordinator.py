"""The sampling engine: Algorithms 1 and 3 with globally exact caps.

Every sampler runs here.  A flat graph is one shard that owns every node
(:func:`~repro.sharding.partition.whole_graph_shard_set`); the naive
sampler walks its run's θ-projection that way.  The dual-stage sampler
also runs on an edge-cut :class:`ShardSet`.  Either way each shard is
hosted in process by a :class:`~repro.sharding.walker.ShardView`, which
the coordinator calls directly in sorted shard order.  One
chunk-synchronous propose/validate protocol serves both, with
cross-shard frontier exchange:

1. **Select** starts with the master generator (same draws, same order
   for every layout).
2. **Propose**: each start walks under its own child RNG stream on the
   shard that owns its current node; a walk stepping onto a halo node is
   suspended and handed — carrying its generator — to the owner shard
   (BSP rounds, ``stats.exchange_rounds`` / ``stats.frontier_forwards``).
3. **Validate**: the coordinator checks every finished walk *in start
   order* against the live global occurrence counts and rejects any walk
   touching a node at the cap, so ``N_g* = M`` holds exactly no matter
   how many shards ran the walks.
4. **Induce + emit**: accepted node sets are induced distributedly (each
   shard contributes the arcs of its owned rows) and emitted in start
   order, so the output container is identical for every shard count.

The master generator is consumed only for: the θ-projection draws (naive),
the Bernoulli(q) selection mask per pass, and one root-entropy draw per
pass — the consumption sequence of the serial oracle in
``tests/oracles.py`` (a scalar RWR over a :class:`Graph` with a chunked
cap validation), which is what makes the differential tests exact.
"""

from __future__ import annotations

import time

import numpy as np

from repro.errors import SamplingError
from repro.graphs.degree import project_in_degree
from repro.graphs.graph import Graph
from repro.obs import Observability, ensure_obs
from repro.sampling.container import Subgraph, SubgraphContainer
from repro.sampling.frequency import FrequencyVector
from repro.sampling.parallel import DualStageRun, NaiveSamplingRun, SamplingStats
from repro.sharding.partition import ShardSet, _row_gather, whole_graph_shard_set
from repro.sharding.walker import ShardView, WalkParams, WalkTask
from repro.utils.rng import child_generator, derive_root_entropy, ensure_rng

__all__ = [
    "sample_naive",
    "sample_dual_stage_sharded",
]


def _chunks(values: np.ndarray, chunk_size: int) -> list[np.ndarray]:
    """Split ``values`` into contiguous chunks of ``chunk_size``."""
    return [values[i : i + chunk_size] for i in range(0, len(values), chunk_size)]


def _check_workers(workers: int) -> None:
    """``workers`` survives only because ``perfbench/workloads.py`` passes
    ``workers=1``; every shard is hosted in process now."""
    if workers != 1:
        raise SamplingError(
            f"workers={workers}: multi-process shard hosting was removed; "
            "every shard is hosted in process (workers=1)"
        )


# --------------------------------------------------------------------------- #
# building blocks
# --------------------------------------------------------------------------- #
def _run_walks(
    views: list[ShardView],
    assignment: np.ndarray,
    tasks: list[WalkTask],
    stats: SamplingStats,
) -> dict[int, list[int] | None]:
    """BSP frontier-exchange loop; returns ``{key: nodes_or_None}``.

    Each round advances every shard's batch in sorted shard order; walks
    that step onto another shard's node are coalesced per destination
    into the next round's batches.  Every walk carries its own child RNG
    stream, so the schedule never changes a result.
    """
    results: dict[int, list[int] | None] = {}
    batches: dict[int, list[WalkTask]] = {}
    for task in tasks:
        batches.setdefault(int(assignment[task.start]), []).append(task)
    began = time.perf_counter()
    while batches:
        stats.exchange_rounds += 1
        pending: dict[int, list[WalkTask]] = {}
        for shard_id in sorted(batches):
            finished, forward = views[shard_id].advance(batches[shard_id])
            results.update(finished)
            for dest in sorted(forward):
                stats.frontier_forwards += len(forward[dest])
                pending.setdefault(dest, []).extend(forward[dest])
        batches = pending
    stats.exchange_wait_seconds += time.perf_counter() - began
    return results


def _expand_balls(
    graph: Graph, starts: np.ndarray, hops: int, direction: str
) -> list[np.ndarray]:
    """r-hop balls of ``starts`` in ``graph`` as sorted arrays — the node
    sets ``k_hop_nodes`` returns.  Lock-step BFS: at each depth every ball
    grows by the CSR rows of its frontier, with vectorized set
    operations."""
    kinds = ("out", "in") if direction == "both" else (direction,)
    csrs = [graph.out_csr() if kind == "out" else graph.in_csr() for kind in kinds]
    balls = [np.array([start], dtype=np.int64) for start in starts]
    frontiers = list(balls)
    for _depth in range(hops):
        for index, frontier in enumerate(frontiers):
            if not len(frontier):
                continue
            rows = [
                indices[_row_gather(indptr, frontier)[1]] for indptr, indices, _ in csrs
            ]
            fresh = np.setdiff1d(np.concatenate(rows), balls[index])
            balls[index] = np.union1d(balls[index], fresh)
            frontiers[index] = fresh
    return balls


def _build_induced(
    node_array: np.ndarray,
    sources: np.ndarray,
    targets: np.ndarray,
    weights: np.ndarray,
    directed: bool,
) -> Graph:
    """Assemble an induced subgraph exactly as ``Graph.subgraph`` would."""
    order_positions = np.argsort(node_array)
    sorted_ids = node_array[order_positions]
    if len(sources):
        local_sources = order_positions[np.searchsorted(sorted_ids, sources)]
        local_targets = order_positions[np.searchsorted(sorted_ids, targets)]
        edges = np.stack([local_sources, local_targets], axis=1)
    else:
        edges = np.empty((0, 2), dtype=np.int64)
    subgraph = Graph(len(node_array), edges, weights, directed=True)
    subgraph.is_directed = directed
    return subgraph


def _induce_subgraphs(
    views: list[ShardView],
    assignment: np.ndarray,
    node_lists: list[np.ndarray],
    directed: bool,
) -> list[Graph]:
    """Distributed induction of many node sets, preserving list order."""
    subgraphs: list[Graph] = []
    for nodes in node_lists:
        node_array = np.asarray(nodes, dtype=np.int64)
        sorted_nodes = np.sort(node_array)
        fragments = [
            views[owner].induced_arcs(sorted_nodes)
            for owner in np.unique(assignment[node_array]).tolist()
        ]
        sources = np.concatenate([fragment[0] for fragment in fragments])
        targets = np.concatenate([fragment[1] for fragment in fragments])
        weights = np.concatenate([fragment[2] for fragment in fragments])
        # Each global source lives in exactly one fragment, so a stable
        # sort by source reproduces edge_arrays() order: ascending source,
        # original row order within each source.
        order = np.argsort(sources, kind="stable")
        subgraphs.append(
            _build_induced(
                node_array, sources[order], targets[order], weights[order], directed
            )
        )
    return subgraphs


def _collect_shard_stats(
    views: list[ShardView], stats: SamplingStats, obs: Observability
) -> None:
    for shard_id, view in enumerate(views):
        stats.shard_seconds[shard_id] = view.seconds
        stats.shard_walks[shard_id] = view.walks_advanced
        if obs.enabled:
            obs.gauge(f"sampling.shard.{shard_id:02d}.seconds").set(view.seconds)


def _publish_stats(obs: Observability, algorithm: str, stats: SamplingStats) -> None:
    """Mirror the engine counters into the metrics registry and run record.

    ``algorithm`` is ``naive`` / ``dual_stage``; dual-stage runs over more
    than one shard report it as ``dual_stage_sharded``."""
    if not obs.enabled:
        return
    if stats.num_shards > 1:
        algorithm += "_sharded"
    obs.counter("sampling.starts_selected").inc(stats.starts_selected)
    obs.counter("sampling.starts_skipped").inc(stats.starts_skipped)
    obs.counter("sampling.walks_attempted").inc(stats.walks_attempted)
    obs.counter("sampling.walks_failed").inc(stats.walks_failed)
    obs.counter("sampling.walks_rejected").inc(stats.walks_rejected)
    obs.counter("sampling.subgraphs_emitted").inc(stats.subgraphs_emitted)
    obs.counter("sampling.sharded.frontier_forwards").inc(stats.frontier_forwards)
    obs.counter("sampling.sharded.exchange_rounds").inc(stats.exchange_rounds)
    obs.gauge("sampling.sharded.exchange_wait_seconds").set(
        stats.exchange_wait_seconds
    )
    obs.gauge("sampling.cap_hit_rate").set(stats.cap_hit_rate)
    obs.event(
        "sampling",
        algorithm=algorithm,
        num_shards=stats.num_shards,
        chunk_size=stats.chunk_size,
        starts_selected=stats.starts_selected,
        starts_skipped=stats.starts_skipped,
        walks_attempted=stats.walks_attempted,
        walks_failed=stats.walks_failed,
        walks_rejected=stats.walks_rejected,
        subgraphs_emitted=stats.subgraphs_emitted,
        cap_hit_rate=stats.cap_hit_rate,
        frontier_forwards=stats.frontier_forwards,
        exchange_rounds=stats.exchange_rounds,
        exchange_wait_seconds=stats.exchange_wait_seconds,
        stage_seconds=dict(stats.stage_seconds),
        shard_seconds={str(k): v for k, v in stats.shard_seconds.items()},
    )


# --------------------------------------------------------------------------- #
# Algorithm 1 — naive RWR sampling
# --------------------------------------------------------------------------- #
def sample_naive(
    graph: Graph,
    config,
    rng: int | np.random.Generator | None = None,
    *,
    obs: Observability | None = None,
    sink=None,
) -> NaiveSamplingRun:
    """Run Algorithm 1 on ``graph`` (see :func:`repro.sampling.sample_naive`).

    The run's θ-projection is walked as one whole-graph shard, so its
    walk rows live on the projected graph and go with it.
    """
    config.validate()
    obs = ensure_obs(obs)
    generator = ensure_rng(rng)
    stats = SamplingStats(chunk_size=config.chunk_size)
    container = SubgraphContainer() if sink is None else sink

    with obs.span("sampling.projection") as span:
        projected = project_in_degree(graph, config.theta, generator)
    stats.stage_seconds["projection"] = span.seconds
    shard_set = whole_graph_shard_set(projected)
    assignment = shard_set.assignment
    views = [ShardView(shard_set.shards[0])]

    selected = np.flatnonzero(generator.random(graph.num_nodes) < config.sampling_rate)
    root = derive_root_entropy(generator)
    stats.starts_selected = int(len(selected))

    params = WalkParams(
        kind="uniform",
        target_size=config.subgraph_size,
        walk_length=config.walk_length,
        restart_probability=config.restart_probability,
        direction=config.direction,
    )
    views[0].begin_pass(params, None)

    with obs.span("sampling.walks") as span:
        for chunk in _chunks(selected, config.chunk_size):
            balls = _expand_balls(projected, chunk, config.hops, config.direction)
            statuses: list[tuple[int, bool]] = []
            tasks: list[WalkTask] = []
            for node, ball in zip(chunk.tolist(), balls):
                if len(ball) < config.subgraph_size:
                    statuses.append((node, True))
                    continue
                statuses.append((node, False))
                tasks.append(
                    WalkTask(
                        key=node,
                        start=node,
                        start_owner=0,
                        current=node,
                        steps=0,
                        restart_drawn=False,
                        visited=[node],
                        generator=child_generator(root, node),
                        allowed=frozenset(ball.tolist()),
                    )
                )
            results = _run_walks(views, assignment, tasks, stats)
            accepted: list[np.ndarray] = []
            for node, skipped in statuses:
                if skipped:
                    stats.starts_skipped += 1
                    continue
                stats.walks_attempted += 1
                nodes = results[node]
                if nodes is None:
                    stats.walks_failed += 1
                    continue
                accepted.append(np.asarray(nodes, dtype=np.int64))
            subgraphs = _induce_subgraphs(
                views, assignment, accepted, graph.is_directed
            )
            for node_map, subgraph in zip(accepted, subgraphs):
                container.add(Subgraph(subgraph, node_map))
                stats.subgraphs_emitted += 1
    stats.stage_seconds["walks"] = span.seconds

    _collect_shard_stats(views, stats, obs)
    _publish_stats(obs, "naive", stats)
    return NaiveSamplingRun(container=container, stats=stats)


# --------------------------------------------------------------------------- #
# Algorithm 3 — dual-stage SCS + BES sampling
# --------------------------------------------------------------------------- #
def _frequency_pass(
    views: list[ShardView],
    assignment: np.ndarray,
    snapshot: np.ndarray,
    frequency: FrequencyVector,
    walk_to_global: np.ndarray,
    availability: np.ndarray | None,
    subgraph_size: int,
    config,
    generator: np.random.Generator,
    container,
    stats: SamplingStats,
    directed: bool,
) -> int:
    """One chunk-synchronous ``FreqSampling`` pass (Algorithm 3, lines
    9–28).

    Walks propose against ``snapshot`` — the array every view reads,
    refreshed from the live counts at each chunk's start;
    each proposal is then validated in start order against the live
    counts, and one touching any node at the cap is rejected outright, so
    ``N_g* = M`` holds exactly.  Counts live in *global* id space.  Stage 2
    walks the residual graph through the ``availability`` mask: its start
    ids are positions in ``walk_to_global`` — the residual graph's local
    ids — which key the child streams, exactly as a walk on the induced
    residual graph would.  Returns the number of subgraphs emitted.
    """
    live = frequency.counts.copy()
    selected = np.flatnonzero(
        generator.random(len(walk_to_global)) < config.sampling_rate
    )
    root = derive_root_entropy(generator)
    stats.starts_selected += int(len(selected))
    if not len(selected):
        return 0

    params = WalkParams(
        kind="frequency",
        target_size=subgraph_size,
        walk_length=config.walk_length,
        restart_probability=config.restart_probability,
        direction=config.direction,
        threshold=config.threshold,
        decay=config.decay,
    )
    for view in views:
        view.begin_pass(params, availability)

    emitted = 0
    for chunk in _chunks(selected, config.chunk_size):
        np.copyto(snapshot, live)
        statuses: list[tuple[int, bool]] = []
        tasks: list[WalkTask] = []
        for local in chunk:
            local = int(local)
            start = int(walk_to_global[local])
            if live[start] >= config.threshold:
                statuses.append((local, True))
                continue
            statuses.append((local, False))
            tasks.append(
                WalkTask(
                    key=local,
                    start=start,
                    start_owner=int(assignment[start]),
                    current=start,
                    steps=0,
                    restart_drawn=False,
                    visited=[start],
                    generator=child_generator(root, local),
                )
            )
        results = _run_walks(views, assignment, tasks, stats)
        accepted: list[np.ndarray] = []
        for local, skipped in statuses:
            if skipped:
                stats.starts_skipped += 1
                continue
            stats.walks_attempted += 1
            nodes = results[local]
            if nodes is None:
                stats.walks_failed += 1
                continue
            node_map = np.asarray(nodes, dtype=np.int64)
            if np.any(live[node_map] >= config.threshold):
                stats.walks_rejected += 1
                continue
            live[node_map] += 1
            frequency.record_subgraph(node_map)
            accepted.append(node_map)
        subgraphs = _induce_subgraphs(views, assignment, accepted, directed)
        for node_map, subgraph in zip(accepted, subgraphs):
            container.add(Subgraph(subgraph, node_map))
            emitted += 1
    stats.subgraphs_emitted += emitted
    return emitted


def sample_dual_stage_sharded(
    shard_set: ShardSet,
    config,
    rng: int | np.random.Generator | None = None,
    *,
    workers: int = 1,
    obs: Observability | None = None,
    sink=None,
) -> DualStageRun:
    """Run Algorithm 3 across edge-cut shards with globally exact caps,
    bit-identical to :func:`repro.sampling.sample_dual_stage` on the
    reassembled graph for every shard count.  Every shard is hosted in
    process, and ``workers`` accepts only 1.
    """
    _check_workers(workers)
    config.validate()
    obs = ensure_obs(obs)
    generator = ensure_rng(rng)
    assignment = shard_set.assignment
    num_nodes = shard_set.num_nodes
    stats = SamplingStats(
        chunk_size=config.chunk_size, num_shards=shard_set.num_shards
    )
    stats.stage_seconds["stage1"] = 0.0
    stats.stage_seconds["stage2"] = 0.0

    frequency = FrequencyVector(num_nodes, config.threshold)
    container = SubgraphContainer() if sink is None else sink
    snapshot = np.zeros(num_nodes, dtype=np.int64)
    views = [ShardView(shard) for shard in shard_set.shards]
    for view in views:
        view.snapshot = snapshot

    with obs.span("sampling.stage1") as span:
        stage1_count = _frequency_pass(
            views,
            assignment,
            snapshot,
            frequency,
            np.arange(num_nodes, dtype=np.int64),
            None,
            config.subgraph_size,
            config,
            generator,
            container,
            stats,
            shard_set.directed,
        )
    stats.stage_seconds["stage1"] = span.seconds

    stage2_count = 0
    if config.include_boundary:
        with obs.span("sampling.stage2") as span:
            remaining = frequency.available_nodes()
            if len(remaining) >= config.boundary_subgraph_size:
                availability = np.zeros(num_nodes, dtype=bool)
                availability[remaining] = True
                stage2_count = _frequency_pass(
                    views,
                    assignment,
                    snapshot,
                    frequency,
                    remaining,
                    availability,
                    config.boundary_subgraph_size,
                    config,
                    generator,
                    container,
                    stats,
                    shard_set.directed,
                )
        stats.stage_seconds["stage2"] = span.seconds
    _collect_shard_stats(views, stats, obs)

    _publish_stats(obs, "dual_stage", stats)
    return DualStageRun(
        container=container,
        frequency=frequency,
        stage1_count=stage1_count,
        stage2_count=stage2_count,
        stats=stats,
    )
