"""Shared evaluation machinery for all experiments.

Protocol (Section V-A): nodes are split 50/50 into train and test; training
subgraphs are drawn from the train-node-induced graph, the trained model
scores the test-node-induced graph, the top-``k`` nodes are the seed set,
and the influence spread (w = 1 IC, j = 1 ⇒ deterministic coverage) on the
test graph is compared with CELF's on the same graph.  Each configuration
is repeated with independent seeds and the mean ± std reported.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from repro.datasets.registry import load_dataset
from repro.errors import ExperimentError
from repro.experiments.methods import build_method, display_name
from repro.experiments.profiles import ExperimentProfile, get_profile
from repro.graphs.graph import Graph
from repro.im.celf import celf_coverage
from repro.im.metrics import coverage_ratio
from repro.im.spread import coverage_spread
from repro.utils.rng import ensure_rng


def split_graph(
    graph: Graph, fraction: float = 0.5, rng: int | np.random.Generator | None = None
) -> tuple[Graph, Graph]:
    """Random node split into (train graph, test graph) induced subgraphs."""
    if not 0.0 < fraction < 1.0:
        raise ExperimentError(f"fraction must be in (0, 1), got {fraction}")
    generator = ensure_rng(rng)
    permutation = generator.permutation(graph.num_nodes)
    cut = max(int(round(graph.num_nodes * fraction)), 1)
    train_nodes = np.sort(permutation[:cut])
    test_nodes = np.sort(permutation[cut:])
    train_graph, _ = graph.subgraph(train_nodes)
    test_graph, _ = graph.subgraph(test_nodes)
    return train_graph, test_graph


@dataclass(frozen=True)
class EvaluationSetting:
    """One evaluation context: a prepared dataset split plus ground truth.

    Attributes:
        dataset: dataset key.
        train_graph / test_graph: the 50/50 node split.
        seed_count: ``k``.
        celf_spread: CELF's spread on the test graph (the denominator of
            every coverage ratio).
    """

    dataset: str
    train_graph: Graph
    test_graph: Graph
    seed_count: int
    celf_spread: float


@lru_cache(maxsize=64)
def _prepare_cached(
    dataset: str, scale: float, max_nodes: int, seed_count: int, split_seed: int
) -> EvaluationSetting:
    graph = load_dataset(dataset, scale=scale, max_nodes=max_nodes)
    train_graph, test_graph = split_graph(graph, 0.5, split_seed)
    k = min(seed_count, test_graph.num_nodes)
    _, celf_spread = celf_coverage(test_graph, k)
    return EvaluationSetting(
        dataset=dataset,
        train_graph=train_graph,
        test_graph=test_graph,
        seed_count=k,
        celf_spread=float(celf_spread),
    )


def prepare_dataset(
    dataset: str, profile: str | ExperimentProfile = "quick"
) -> EvaluationSetting:
    """Load a dataset at profile scale, split it, and compute CELF once.

    Results are cached per (dataset, profile) so sweeps that reuse the same
    split (ε sweeps, parameter studies) do not recompute ground truth.
    """
    resolved = get_profile(profile)
    return _prepare_cached(
        dataset.lower(),
        resolved.dataset_scale,
        resolved.max_nodes,
        resolved.seed_count,
        resolved.base_seed,
    )


@dataclass
class MethodRun:
    """Outcome of one (method, dataset, ε, seed) training + evaluation.

    Attributes:
        method: method key.
        spread: influence spread of the selected seeds on the test graph.
        ratio: coverage ratio vs CELF, in percent.
        sigma: the calibrated noise multiplier.
        num_subgraphs: container size.
        preprocessing_seconds / training_seconds: phase timings.
    """

    method: str
    spread: float
    ratio: float
    sigma: float
    num_subgraphs: int
    preprocessing_seconds: float
    training_seconds: float


def evaluate_method(
    method: str,
    setting: EvaluationSetting,
    epsilon: float | None,
    profile: str | ExperimentProfile,
    seed: int,
    **overrides,
) -> MethodRun:
    """Train one method once and evaluate its seed set."""
    resolved = get_profile(profile)
    pipeline = build_method(method, epsilon, resolved, seed, **overrides)
    result = pipeline.fit(setting.train_graph)
    seeds = pipeline.select_seeds(setting.test_graph, setting.seed_count)
    spread = float(coverage_spread(setting.test_graph, seeds))
    return MethodRun(
        method=method,
        spread=spread,
        ratio=coverage_ratio(spread, setting.celf_spread),
        sigma=result.sigma,
        num_subgraphs=result.num_subgraphs,
        preprocessing_seconds=result.preprocessing_seconds,
        training_seconds=result.training_seconds,
    )


@dataclass
class AggregateRun:
    """Mean ± std over the repeats of one configuration."""

    method: str
    display: str
    spread_mean: float
    spread_std: float
    ratio_mean: float
    ratio_std: float
    runs: list[MethodRun] = field(default_factory=list)


def repeat_evaluation(
    method: str,
    setting: EvaluationSetting,
    epsilon: float | None,
    profile: str | ExperimentProfile,
    *,
    repeats: int | None = None,
    **overrides,
) -> AggregateRun:
    """Repeat :func:`evaluate_method` and aggregate (the paper repeats 5x)."""
    resolved = get_profile(profile)
    count = repeats if repeats is not None else resolved.repeats
    if count < 1:
        raise ExperimentError(f"repeats must be >= 1, got {count}")
    runs = [
        evaluate_method(
            method,
            setting,
            epsilon,
            resolved,
            seed=resolved.base_seed + 1000 * index + 7,
            **overrides,
        )
        for index in range(count)
    ]
    spreads = np.array([run.spread for run in runs])
    ratios = np.array([run.ratio for run in runs])
    return AggregateRun(
        method=method,
        display=display_name(method),
        spread_mean=float(spreads.mean()),
        spread_std=float(spreads.std()),
        ratio_mean=float(ratios.mean()),
        ratio_std=float(ratios.std()),
        runs=runs,
    )


def timed(fn, *args, **kwargs) -> tuple[float, object]:
    """``(seconds, result)`` of calling ``fn``."""
    started = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - started, result
