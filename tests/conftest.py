"""Shared fixtures for the test suite."""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest

from repro.graphs.graph import Graph
from repro.graphs.generators import barabasi_albert_graph, powerlaw_cluster_graph
from repro.nn import kernels
from tests.oracles import reference_segment_max, reference_segment_sum


@pytest.fixture
def add_at_kernels(monkeypatch):
    """Context manager swapping the fused kernels for the ``np.add.at`` oracle.

    Inside ``with add_at_kernels():`` every scatter in the autograd layer
    (forward and backward, in this process and in forked gradient workers)
    runs through :func:`reference_segment_sum` / :func:`reference_segment_max`.
    """

    @contextmanager
    def active():
        with monkeypatch.context() as patch:
            patch.setattr(kernels, "segment_sum", reference_segment_sum)
            patch.setattr(kernels, "segment_max", reference_segment_max)
            yield

    return active


@pytest.fixture
def rng() -> np.random.Generator:
    """A fixed-seed generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def tiny_graph() -> Graph:
    """A 5-node directed graph with hand-checkable structure.

    Edges: 0->1, 0->2, 1->2, 2->3, 3->4 (weights 1.0).
    """
    return Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)])


@pytest.fixture
def weighted_graph() -> Graph:
    """A small weighted directed graph for diffusion math."""
    edges = [(0, 1), (0, 2), (1, 3), (2, 3)]
    weights = [0.5, 0.25, 1.0, 0.75]
    return Graph(4, edges, weights)


@pytest.fixture
def social_graph() -> Graph:
    """A 150-node heavy-tailed undirected graph (BA, m=3)."""
    return barabasi_albert_graph(150, 3, rng=7)


@pytest.fixture
def clustered_graph() -> Graph:
    """A 200-node power-law cluster graph (the dataset family)."""
    return powerlaw_cluster_graph(200, 3, 0.3, rng=11)
