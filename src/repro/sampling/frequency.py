"""Adaptive frequency machinery (Eq. 9) shared by both stages of Algorithm 3.

Each node carries a frequency value ``f_v`` — how many subgraphs it has
already joined.  During a walk, a neighbour's selection weight is

``e_v = 1 / (f_v + 1)^μ`` if ``f_v < M`` else ``0``,

normalised over the candidate set (Eq. 9).  Nodes that reached the global
threshold ``M`` can never be sampled again, which is what turns the
occurrence bound into the hard cap ``N_g* = M``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SamplingError


class FrequencyVector:
    """The occurrence counter ``f ∈ R^{|V|}`` of Algorithm 3.

    Attributes:
        counts: int64 occurrence counts, indexed by original node id.
        threshold: the global cap ``M``.
    """

    def __init__(self, num_nodes: int, threshold: int) -> None:
        if num_nodes < 0:
            raise SamplingError(f"num_nodes must be >= 0, got {num_nodes}")
        if threshold < 1:
            raise SamplingError(f"threshold M must be >= 1, got {threshold}")
        self.counts = np.zeros(num_nodes, dtype=np.int64)
        self.threshold = int(threshold)

    def __len__(self) -> int:
        return len(self.counts)

    def value(self, node: int) -> int:
        """Current frequency ``f_v``."""
        return int(self.counts[node])

    def is_saturated(self, node: int) -> bool:
        """Whether ``f_v`` has reached the cap ``M``."""
        return bool(self.counts[node] >= self.threshold)

    def saturated_nodes(self) -> np.ndarray:
        """All nodes with ``f_v = M`` (removed by BES, Algorithm 3 line 3)."""
        return np.flatnonzero(self.counts >= self.threshold)

    def available_nodes(self) -> np.ndarray:
        """All nodes still below the cap."""
        return np.flatnonzero(self.counts < self.threshold)

    def record_subgraph(self, nodes: np.ndarray) -> None:
        """Count one subgraph membership for every node in ``nodes``.

        Raises if any node would exceed ``M`` — that would void the
        sensitivity bound, so it is a hard error, not a warning.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        if np.any(self.counts[nodes] >= self.threshold):
            raise SamplingError(
                "recording this subgraph would push a node past the threshold M"
            )
        self.counts[nodes] += 1

    def max_frequency(self) -> int:
        """Largest recorded frequency (the empirical ``N_g*``)."""
        return int(self.counts.max()) if len(self.counts) else 0


def adaptive_neighbor_weights(
    frequencies: np.ndarray,
    threshold: int,
    decay: float,
) -> np.ndarray:
    """Eq. 9's unnormalised weights ``e_v = 1 / (f_v + 1)^μ`` (0 at the
    cap ``M``), elementwise over ``frequencies``."""
    if decay < 0:
        raise SamplingError(f"decay mu must be >= 0, got {decay}")
    freq = np.asarray(frequencies, dtype=np.float64)
    return np.where(freq < threshold, 1.0 / np.power(freq + 1.0, decay), 0.0)
