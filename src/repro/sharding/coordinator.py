"""The sampling engine: Algorithms 1 and 3 with globally exact caps.

Every sampler runs here.  A flat graph is one shard that owns every node
(:func:`~repro.sharding.partition.whole_graph_shard_set`); a sharded
graph is an edge-cut :class:`ShardSet`.  Either way each shard is hosted
in process by a :class:`~repro.sharding.walker.ShardView`, which the
coordinator calls directly in sorted shard order.  One chunk-synchronous
propose/validate protocol serves both, with cross-shard frontier
exchange:

1. **Select** starts with the master generator (same draws, same order
   for every layout).
2. **Propose**: each start walks under its own child RNG stream on the
   shard that owns its current node; a walk stepping onto a halo node is
   suspended and handed — carrying its generator — to the owner shard
   (BSP rounds, ``stats.exchange_rounds`` / ``stats.frontier_forwards``).
3. **Validate**: the coordinator checks every finished walk *in start
   order* against the live global occurrence counts and rejects any walk
   touching a node at the cap, so ``N_g`` / ``N_g* = M`` hold exactly no
   matter how many shards ran the walks.
4. **Induce + emit**: accepted node sets are induced distributedly (each
   shard contributes the arcs of its owned rows) and emitted in start
   order, so the output container is identical for every shard count.

The master generator is consumed only for: the θ-projection draws (naive),
the Bernoulli(q) selection mask per pass, and one root-entropy draw per
pass — the consumption sequence of the serial oracle in the test suite
(``random_walk_nodes`` with a chunked cap validation), which is what makes
the differential tests exact.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.errors import SamplingError
from repro.graphs.graph import Graph
from repro.obs import Observability, ensure_obs
from repro.sampling.container import Subgraph, SubgraphContainer
from repro.sampling.frequency import FrequencyVector
from repro.sampling.parallel import DualStageRun, SamplingStats
from repro.sharding.partition import GraphShard, ShardSet, _row_gather
from repro.sharding.walker import ShardView, WalkParams, WalkTask
from repro.utils.rng import child_generator, derive_root_entropy, ensure_rng

__all__ = [
    "ShardedNaiveRun",
    "sample_naive_sharded",
    "sample_dual_stage_sharded",
]


@dataclass
class ShardedNaiveRun:
    """Outcome of :func:`sample_naive_sharded`."""

    container: SubgraphContainer
    stats: SamplingStats
    projected_shards: list[GraphShard] | None = None

    def reassemble_projected(self) -> Graph:
        """Rebuild the θ-projected graph from the per-shard projections
        (available when sampling ran with ``return_projection=True``)."""
        if self.projected_shards is None:
            raise SamplingError(
                "projection was not exported; pass return_projection=True"
            )
        template = self.projected_shards[0]
        shard_set = ShardSet(
            shards=self.projected_shards,
            assignment=np.empty(0, dtype=np.int64),
            num_nodes=template.num_global_nodes,
            num_arcs=sum(len(s.out_local) for s in self.projected_shards),
            directed=template.directed,
            method="projected",
        )
        return shard_set.reassemble()


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
    views: list[ShardView],
    assignment: np.ndarray,
    starts: np.ndarray,
    hops: int,
    direction: str,
    use_projected: bool,
) -> list[np.ndarray]:
    """Distributed r-hop balls of ``starts`` as sorted arrays — the node
    sets ``k_hop_nodes`` returns.  Lock-step BFS: each depth fetches the
    rows of every frontier node of the chunk once, from their owner
    shards, then grows each ball with vectorized set operations."""
    balls = [np.array([start], dtype=np.int64) for start in starts]
    frontiers = list(balls)
    for _depth in range(hops):
        needed = np.unique(np.concatenate(frontiers))
        if not len(needed):
            break
        owners = assignment[needed]
        members = {int(shard_id): owners == shard_id for shard_id in np.unique(owners)}
        responses = {
            shard_id: views[shard_id].ball_rows(needed[mask], direction, use_projected)
            for shard_id, mask in members.items()
        }
        # One CSR over ``needed`` from the shards' row blocks.
        lengths = np.zeros(len(needed), dtype=np.int64)
        for shard_id, mask in members.items():
            lengths[mask] = np.diff(responses[shard_id][0])
        indptr = np.zeros(len(needed) + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        rows = np.empty(int(indptr[-1]), dtype=np.int64)
        for shard_id, mask in members.items():
            _, slots = _row_gather(indptr, np.flatnonzero(mask))
            rows[slots] = responses[shard_id][1]
        for index, frontier in enumerate(frontiers):
            if not len(frontier):
                continue
            _, gathered = _row_gather(indptr, np.searchsorted(needed, frontier))
            fresh = np.setdiff1d(rows[gathered], balls[index])
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
    use_projected: bool,
) -> list[Graph]:
    """Distributed induction of many node sets, preserving list order."""
    subgraphs: list[Graph] = []
    for nodes in node_lists:
        node_array = np.asarray(nodes, dtype=np.int64)
        sorted_nodes = np.sort(node_array)
        fragments = [
            views[owner].induced_arcs(sorted_nodes, use_projected)
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


def _distributed_projection(
    views: list[ShardView],
    shard_set: ShardSet,
    theta: int,
    generator: np.random.Generator,
) -> None:
    """Distributed θ-projection, draw-for-draw with ``project_in_degree``.

    Phase A gathers in-degrees; phase B replays the serial keep draws on
    the coordinator (node order 0..N-1, one ``choice`` per over-θ node);
    phase C has owner shards build their projected in rows and emit out-arc
    fragments to each source's owner; phase D assembles the projected out
    rows.  The projection stays sharded — it is never materialised whole.
    """
    in_degrees = np.zeros(shard_set.num_nodes, dtype=np.int64)
    for view in views:
        owned, degrees = view.in_degrees()
        in_degrees[owned] = degrees

    over = np.flatnonzero(in_degrees > theta)
    keep = np.empty((len(over), theta), dtype=np.int64)
    for row, degree in enumerate(in_degrees[over].tolist()):
        keep[row] = generator.choice(degree, size=theta, replace=False)
    owners = shard_set.assignment[over]
    fragments_by_dest: list[list] = [[] for _ in views]
    for shard_id, view in enumerate(views):
        mask = owners == shard_id
        fragments = view.project_keep(over[mask], keep[mask])
        for dest in sorted(fragments):
            fragments_by_dest[dest].append(fragments[dest])
    for view, fragments in zip(views, fragments_by_dest):
        view.project_out(fragments)


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

    ``algorithm`` is ``naive`` / ``dual_stage``; runs over more than one
    shard report it with a ``_sharded`` suffix."""
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
def sample_naive_sharded(
    shard_set: ShardSet,
    config,
    rng: int | np.random.Generator | None = None,
    *,
    workers: int = 1,
    obs: Observability | None = None,
    sink=None,
    return_projection: bool = False,
) -> ShardedNaiveRun:
    """Run Algorithm 1 across edge-cut shards, bit-identical to
    :func:`repro.sampling.sample_naive` on the reassembled graph.

    ``config`` is the usual
    :class:`~repro.sampling.naive.NaiveSamplingConfig`; every shard is
    hosted in process, and ``workers`` accepts only 1.
    """
    _check_workers(workers)
    config.validate()
    obs = ensure_obs(obs)
    generator = ensure_rng(rng)
    assignment = shard_set.assignment
    stats = SamplingStats(
        chunk_size=config.chunk_size, num_shards=shard_set.num_shards
    )
    stats.stage_seconds["projection"] = 0.0
    stats.stage_seconds["walks"] = 0.0
    container = SubgraphContainer() if sink is None else sink
    views = [ShardView(shard) for shard in shard_set.shards]

    with obs.span("sampling.projection") as span:
        _distributed_projection(views, shard_set, config.theta, generator)
    stats.stage_seconds["projection"] = span.seconds

    selected = np.flatnonzero(
        generator.random(shard_set.num_nodes) < config.sampling_rate
    )
    root = derive_root_entropy(generator)
    stats.starts_selected = int(len(selected))

    params = WalkParams(
        kind="uniform",
        target_size=config.subgraph_size,
        walk_length=config.walk_length,
        restart_probability=config.restart_probability,
        direction=config.direction,
        use_projected=True,
    )
    for view in views:
        view.begin_pass(params, None)

    with obs.span("sampling.walks") as span:
        for chunk in _chunks(selected, config.chunk_size):
            balls = _expand_balls(
                views, assignment, chunk, config.hops, config.direction, True
            )
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
                        start_owner=int(assignment[node]),
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
                views, assignment, accepted, shard_set.directed, True
            )
            for node_map, subgraph in zip(accepted, subgraphs):
                container.add(Subgraph(subgraph, node_map))
                stats.subgraphs_emitted += 1
    stats.stage_seconds["walks"] = span.seconds

    projected_shards = None
    if return_projection:
        projected_shards = [
            GraphShard(
                base.shard_id,
                base.num_shards,
                base.num_global_nodes,
                base.directed,
                base.owned,
                base.halo,
                base.halo_owner,
                *view.projection,
            )
            for base, view in zip(shard_set.shards, views)
        ]
    _collect_shard_stats(views, stats, obs)
    _publish_stats(obs, "naive", stats)
    return ShardedNaiveRun(
        container=container, stats=stats, projected_shards=projected_shards
    )


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
        subgraphs = _induce_subgraphs(views, assignment, accepted, directed, False)
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
