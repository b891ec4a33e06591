"""Diagnostics for subgraph containers.

Answers the questions one asks when tuning the samplers: how many
subgraphs, how big, how dense, how much of the original graph is covered,
and how close the occurrence distribution sails to the privacy bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SamplingError
from repro.sampling.container import SubgraphContainer
from repro.sampling.parallel import SamplingStats


@dataclass(frozen=True)
class ContainerDiagnostics:
    """Statistical fingerprint of a subgraph container.

    Attributes:
        num_subgraphs: pool size ``m``.
        mean_size / min_size / max_size: node counts per subgraph.
        mean_density: mean arcs / (n·(n−1)) per subgraph.
        coverage: fraction of original nodes in ≥ 1 subgraph.
        occurrence_histogram: ``hist[c]`` = number of original nodes
            appearing in exactly ``c`` subgraphs.
        max_occurrence: the empirical N_g.
        bound_utilisation: ``max_occurrence / bound`` when a bound is
            given — how much of the allowed sensitivity the sampler used.
    """

    num_subgraphs: int
    mean_size: float
    min_size: int
    max_size: int
    mean_density: float
    coverage: float
    occurrence_histogram: tuple[int, ...]
    max_occurrence: int
    bound_utilisation: float | None


def diagnose_container(
    container: SubgraphContainer,
    num_original_nodes: int,
    *,
    occurrence_bound: int | None = None,
) -> ContainerDiagnostics:
    """Compute :class:`ContainerDiagnostics` for ``container``.

    Args:
        container: the sampled pool.
        num_original_nodes: ``|V|`` of the source graph.
        occurrence_bound: optional theoretical ``N_g`` to compare against.
    """
    if len(container) == 0:
        raise SamplingError("cannot diagnose an empty container")
    if num_original_nodes < 1:
        raise SamplingError("num_original_nodes must be >= 1")

    sizes = np.array([subgraph.num_nodes for subgraph in container])
    densities = []
    for subgraph in container:
        nodes = subgraph.num_nodes
        pairs = nodes * (nodes - 1)
        densities.append(subgraph.graph.num_edges / pairs if pairs else 0.0)

    counts = container.occurrence_counts(num_original_nodes)
    histogram = np.bincount(counts)
    max_occurrence = int(counts.max())
    utilisation = None
    if occurrence_bound is not None:
        if occurrence_bound < 1:
            raise SamplingError("occurrence_bound must be >= 1")
        utilisation = max_occurrence / occurrence_bound

    return ContainerDiagnostics(
        num_subgraphs=len(container),
        mean_size=float(sizes.mean()),
        min_size=int(sizes.min()),
        max_size=int(sizes.max()),
        mean_density=float(np.mean(densities)),
        coverage=float((counts > 0).mean()),
        occurrence_histogram=tuple(int(c) for c in histogram),
        max_occurrence=max_occurrence,
        bound_utilisation=utilisation,
    )


def render_diagnostics(diagnostics: ContainerDiagnostics) -> str:
    """Human-readable multi-line summary."""
    lines = [
        f"subgraphs        : {diagnostics.num_subgraphs}",
        f"sizes            : mean {diagnostics.mean_size:.1f} "
        f"(min {diagnostics.min_size}, max {diagnostics.max_size})",
        f"mean density     : {diagnostics.mean_density:.4f}",
        f"node coverage    : {100 * diagnostics.coverage:.1f}%",
        f"max occurrence   : {diagnostics.max_occurrence}",
    ]
    if diagnostics.bound_utilisation is not None:
        lines.append(
            f"bound utilisation: {100 * diagnostics.bound_utilisation:.1f}% of N_g"
        )
    occupancy = ", ".join(
        f"{count}x:{nodes}" for count, nodes in enumerate(diagnostics.occurrence_histogram)
    )
    lines.append(f"occurrence hist  : {occupancy}")
    return "\n".join(lines)


def render_sampling_stats(stats: SamplingStats) -> str:
    """Human-readable multi-line summary of the engine's counters."""
    lines = [
        f"shards           : {stats.num_shards} (chunk size {stats.chunk_size})",
        f"starts           : {stats.starts_selected} selected, "
        f"{stats.starts_skipped} skipped",
        f"walks            : {stats.walks_attempted} attempted, "
        f"{stats.walks_failed} failed, {stats.walks_rejected} cap-rejected "
        f"(cap-hit rate {100 * stats.cap_hit_rate:.1f}%)",
        f"subgraphs        : {stats.subgraphs_emitted} emitted",
    ]
    if stats.stage_seconds:
        timing = ", ".join(
            f"{stage} {seconds:.3f}s" for stage, seconds in stats.stage_seconds.items()
        )
        lines.append(f"stage wall time  : {timing}")
    return "\n".join(lines)
