"""The :class:`Graph` data structure.

A directed, weighted graph stored in compressed-sparse-row (CSR) form in
*both* directions:

* out-CSR — for each node ``u``, the targets ``v`` of edges ``(u, v)`` and
  their influence weights ``w_uv`` (the probability that ``u`` activates
  ``v`` in the Independent Cascade model);
* in-CSR — for each node ``v``, the sources ``u`` of edges ``(u, v)``,
  mirroring the same weights.

The dual representation is what the paper's algorithms need: random walks
and diffusion traverse out-edges, while GNN message passing and the
in-degree bound θ operate on in-edges.  Undirected graphs are represented
as directed graphs with both arc directions present (``is_directed`` is
kept as metadata so dataset statistics report the undirected edge count).
"""

from __future__ import annotations

from math import isqrt
from typing import Callable, Hashable, Iterator, Sequence, TypeVar

import numpy as np

from repro.errors import GraphError
from repro.utils.sorting import stable_argsort

T = TypeVar("T")


def _check_probabilities(weights: np.ndarray) -> None:
    """Reject weights outside ``[0, 1]``, NaN included (NaN fails both bounds)."""
    if not np.all((weights >= 0) & (weights <= 1)):
        raise GraphError(
            "edge weights must be finite influence probabilities in [0, 1]"
        )


#: Largest node count whose arc keys ``u * num_nodes + v`` fit in int64.
_MAX_KEYED_NODES = isqrt(2**63 - 1)


def _unique_arcs(num_nodes: int, arcs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(arcs, axis=0, return_index=True)`` for int64 ``(E, 2)``
    arcs with endpoints in ``[0, num_nodes)``.

    Each arc is keyed as ``u * num_nodes + v``, which orders arcs as the
    row-wise unique does; a stable sort of the keys then gives the same
    distinct rows and the same first-occurrence indices at a fraction of
    the cost.  Node counts whose keys would overflow int64 take the
    row-wise unique.
    """
    if num_nodes > _MAX_KEYED_NODES:
        return np.unique(arcs, axis=0, return_index=True)
    keys = arcs[:, 0] * num_nodes + arcs[:, 1]
    order = stable_argsort(keys, num_nodes * num_nodes)
    sorted_keys = keys[order]
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=first[1:])
    first_index = order[first]
    return arcs[first_index], first_index


def _build_csr(
    num_nodes: int, sources: np.ndarray, targets: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort edges by ``sources`` and build (indptr, indices, weights)."""
    order = stable_argsort(sources, num_nodes)
    sorted_sources = sources[order]
    indices = targets[order]
    sorted_weights = weights[order]
    counts = np.bincount(sorted_sources, minlength=num_nodes)
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, indices.astype(np.int64), sorted_weights.astype(np.float64)


class Graph:
    """A weighted directed graph in dual-CSR form.

    Instances are conceptually immutable: all mutating operations
    (projection, subgraph extraction) return new graphs.

    Args:
        num_nodes: number of nodes; node ids are ``0 .. num_nodes - 1``.
        edges: ``(E, 2)`` integer array (or sequence of pairs) of directed
            edges ``(u, v)``.  For undirected graphs pass each edge once and
            set ``directed=False``; both arcs are materialised.
        weights: optional per-edge influence probabilities in ``[0, 1]``;
            defaults to 1.0 for every edge (the paper's evaluation setting).
        directed: whether ``edges`` are directed arcs.
    """

    def __init__(
        self,
        num_nodes: int,
        edges: Sequence[tuple[int, int]] | np.ndarray,
        weights: Sequence[float] | np.ndarray | None = None,
        *,
        directed: bool = True,
    ) -> None:
        if num_nodes < 0:
            raise GraphError(f"num_nodes must be non-negative, got {num_nodes}")
        edge_array = np.asarray(edges, dtype=np.int64)
        if edge_array.size == 0:
            edge_array = edge_array.reshape(0, 2)
        if edge_array.ndim != 2 or edge_array.shape[1] != 2:
            raise GraphError(f"edges must have shape (E, 2), got {edge_array.shape}")
        if edge_array.size and (edge_array.min() < 0 or edge_array.max() >= num_nodes):
            raise GraphError("edge endpoints must be in [0, num_nodes)")

        if weights is None:
            weight_array = np.ones(len(edge_array), dtype=np.float64)
        else:
            weight_array = np.asarray(weights, dtype=np.float64)
            if weight_array.shape != (len(edge_array),):
                raise GraphError(
                    f"weights must have shape ({len(edge_array)},), got {weight_array.shape}"
                )
            _check_probabilities(weight_array)

        self.num_nodes = int(num_nodes)
        self.is_directed = bool(directed)
        self._undirected_edge_count = 0 if directed else len(edge_array)

        if not directed and len(edge_array):
            # Materialise both arc directions; drop accidental duplicates.
            forward = edge_array
            backward = edge_array[:, ::-1]
            edge_array = np.concatenate([forward, backward], axis=0)
            weight_array = np.concatenate([weight_array, weight_array])
            edge_array, unique_idx = _unique_arcs(num_nodes, edge_array)
            weight_array = weight_array[unique_idx]

        sources, targets = edge_array[:, 0], edge_array[:, 1]
        self._out_indptr, self._out_indices, self._out_weights = _build_csr(
            num_nodes, sources, targets, weight_array
        )
        self._in_indptr, self._in_indices, self._in_weights = _build_csr(
            num_nodes, targets, sources, weight_array
        )
        self._init_caches()

    #: Attributes :meth:`_init_caches` sets: values derived from the
    #: structure, rebuilt on demand and never pickled.
    _DERIVED = (
        "_edge_arrays_cache",
        "_edge_index_cache",
        "_has_unit_weights",
        "_derived",
    )

    def _init_caches(self) -> None:
        """Reset the lazily-built derived-array caches."""
        self._edge_arrays_cache: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._edge_index_cache: np.ndarray | None = None
        self._has_unit_weights: bool | None = None
        self._derived: dict[Hashable, object] = {}

    def __getstate__(self) -> dict:
        """Pickle the structure only; the unpickled graph rebuilds its
        derived values on demand."""
        state = self.__dict__.copy()
        for name in self._DERIVED:
            state.pop(name, None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._init_caches()

    def derived(self, key: Hashable, build: Callable[[], T]) -> T:
        """The value stored under ``key``, built by ``build()`` on first use.

        A build-once store for values that depend only on this graph's
        structure (degree features, the walk's candidate rows).  Graphs
        are immutable, so a stored value stays valid for the graph's
        lifetime; :meth:`add_edges` and :meth:`remove_edges` return new
        graphs with empty stores.  Two threads missing the same key at
        once both build it, and both get the value stored first.
        """
        try:
            return self._derived[key]  # type: ignore[return-value]
        except KeyError:
            return self._derived.setdefault(key, build())  # type: ignore[return-value]

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def num_edges(self) -> int:
        """Number of stored directed arcs (2x the edge count if undirected)."""
        return int(len(self._out_indices))

    @property
    def num_undirected_edges(self) -> int:
        """Edge count as reported for undirected datasets (each edge once)."""
        if self.is_directed:
            return self.num_edges
        return self.num_edges // 2

    @property
    def average_degree(self) -> float:
        """Average degree: arcs per node (matches the paper's Table I)."""
        if self.num_nodes == 0:
            return 0.0
        return self.num_edges / self.num_nodes

    def out_degrees(self) -> np.ndarray:
        """Out-degree of every node as an ``int64`` array."""
        return np.diff(self._out_indptr)

    def in_degrees(self) -> np.ndarray:
        """In-degree of every node as an ``int64`` array."""
        return np.diff(self._in_indptr)

    # ------------------------------------------------------------------ #
    # Neighbourhood access
    # ------------------------------------------------------------------ #
    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise GraphError(f"node {node} out of range [0, {self.num_nodes})")

    def out_neighbors(self, node: int) -> np.ndarray:
        """Targets of edges leaving ``node`` (view, do not mutate)."""
        self._check_node(node)
        return self._out_indices[self._out_indptr[node] : self._out_indptr[node + 1]]

    def in_neighbors(self, node: int) -> np.ndarray:
        """Sources of edges entering ``node`` (view, do not mutate)."""
        self._check_node(node)
        return self._in_indices[self._in_indptr[node] : self._in_indptr[node + 1]]

    def out_weights(self, node: int) -> np.ndarray:
        """Weights aligned with :meth:`out_neighbors`."""
        self._check_node(node)
        return self._out_weights[self._out_indptr[node] : self._out_indptr[node + 1]]

    def in_weights(self, node: int) -> np.ndarray:
        """Weights aligned with :meth:`in_neighbors`."""
        self._check_node(node)
        return self._in_weights[self._in_indptr[node] : self._in_indptr[node + 1]]

    def has_edge(self, source: int, target: int) -> bool:
        """Whether the arc ``(source, target)`` exists."""
        self._check_node(source)
        self._check_node(target)
        return bool(np.isin(target, self.out_neighbors(source)).item())

    def edges(self) -> Iterator[tuple[int, int, float]]:
        """Iterate over all arcs as ``(source, target, weight)`` triples."""
        for source in range(self.num_nodes):
            start, stop = self._out_indptr[source], self._out_indptr[source + 1]
            for offset in range(start, stop):
                yield (
                    int(source),
                    int(self._out_indices[offset]),
                    float(self._out_weights[offset]),
                )

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All arcs as ``(sources, targets, weights)`` arrays (CSR order).

        The graph is immutable, so the triple is materialised once and the
        cached arrays are returned read-only on every later call (the
        training loop asks for them every iteration).  Callers needing a
        mutable array must copy.
        """
        if self._edge_arrays_cache is None:
            sources = np.repeat(np.arange(self.num_nodes), np.diff(self._out_indptr))
            targets = self._out_indices.copy()
            weights = self._out_weights.copy()
            for array in (sources, targets, weights):
                array.setflags(write=False)
            self._edge_arrays_cache = (sources, targets, weights)
        return self._edge_arrays_cache

    def edge_index(self) -> np.ndarray:
        """Arcs as a ``(2, E)`` array ``[sources; targets]`` for GNN layers.

        Built once and returned read-only thereafter (see
        :meth:`edge_arrays`).
        """
        if self._edge_index_cache is None:
            sources, targets, _ = self.edge_arrays()
            stacked = np.stack([sources, targets])
            stacked.setflags(write=False)
            self._edge_index_cache = stacked
        return self._edge_index_cache

    @property
    def has_unit_weights(self) -> bool:
        """Whether every arc weight is exactly 1.0 (computed once, cached).

        The deterministic-coverage fast path of
        :func:`repro.im.spread.estimate_spread` branches on this per call —
        hot in the serving ``/v1/spread`` path — so the answer must not
        require rescanning the weight vector each time.
        """
        if self._has_unit_weights is None:
            self._has_unit_weights = bool(
                self._out_weights.size == 0 or np.all(self._out_weights == 1.0)
            )
        return self._has_unit_weights

    # ------------------------------------------------------------------ #
    # CSR views and reconstruction
    # ------------------------------------------------------------------ #
    def out_csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The out-direction CSR triple ``(indptr, indices, weights)``.

        These are the graph's internal arrays (views, do not mutate); the
        flat sampler walks them directly as one whole-graph shard, so the
        graph is never re-sorted or copied.
        """
        return self._out_indptr, self._out_indices, self._out_weights

    def in_csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The in-direction CSR triple ``(indptr, indices, weights)``."""
        return self._in_indptr, self._in_indices, self._in_weights

    @classmethod
    def from_csr(
        cls,
        num_nodes: int,
        out_csr: tuple[np.ndarray, np.ndarray, np.ndarray],
        in_csr: tuple[np.ndarray, np.ndarray, np.ndarray],
        *,
        directed: bool = True,
    ) -> "Graph":
        """Rebuild a graph from prebuilt dual-CSR arrays without re-sorting.

        The arrays are adopted as-is (no copy), so callers must hand over
        CSR triples they will not mutate — typically the output of
        :meth:`out_csr` / :meth:`in_csr` of an existing graph, possibly
        living in shared memory in another process.
        """
        out_indptr, out_indices, out_weights = (np.asarray(a) for a in out_csr)
        in_indptr, in_indices, in_weights = (np.asarray(a) for a in in_csr)
        if len(out_indptr) != num_nodes + 1 or len(in_indptr) != num_nodes + 1:
            raise GraphError("CSR indptr arrays must have length num_nodes + 1")
        if len(out_indices) != len(in_indices):
            raise GraphError("out/in CSR arrays must describe the same arc set")

        graph = cls.__new__(cls)
        graph.num_nodes = int(num_nodes)
        graph.is_directed = bool(directed)
        graph._undirected_edge_count = 0 if directed else len(out_indices) // 2
        graph._out_indptr = out_indptr.astype(np.int64, copy=False)
        graph._out_indices = out_indices.astype(np.int64, copy=False)
        graph._out_weights = out_weights.astype(np.float64, copy=False)
        graph._in_indptr = in_indptr.astype(np.int64, copy=False)
        graph._in_indices = in_indices.astype(np.int64, copy=False)
        graph._in_weights = in_weights.astype(np.float64, copy=False)
        graph._init_caches()
        return graph

    # ------------------------------------------------------------------ #
    # Derived graphs
    # ------------------------------------------------------------------ #
    def subgraph(self, nodes: Sequence[int] | np.ndarray) -> tuple["Graph", np.ndarray]:
        """Induced subgraph on ``nodes``.

        Returns:
            ``(subgraph, node_map)`` where ``node_map[i]`` is the original id
            of subgraph node ``i``.  Node order follows ``nodes`` (duplicates
            are rejected).
        """
        node_array = np.asarray(nodes, dtype=np.int64)
        if node_array.ndim != 1:
            raise GraphError("nodes must be a 1-D sequence of node ids")
        if len(np.unique(node_array)) != len(node_array):
            raise GraphError("nodes must not contain duplicates")
        if node_array.size and (node_array.min() < 0 or node_array.max() >= self.num_nodes):
            raise GraphError("subgraph nodes out of range")

        relabel = np.full(self.num_nodes, -1, dtype=np.int64)
        relabel[node_array] = np.arange(len(node_array))
        sources, targets, weights = self.edge_arrays()
        keep = (relabel[sources] >= 0) & (relabel[targets] >= 0)
        sub_edges = np.stack([relabel[sources[keep]], relabel[targets[keep]]], axis=1)
        sub = Graph(len(node_array), sub_edges, weights[keep], directed=True)
        sub.is_directed = self.is_directed
        return sub, node_array.copy()

    def reverse(self) -> "Graph":
        """Graph with every arc reversed."""
        sources, targets, weights = self.edge_arrays()
        reversed_edges = np.stack([targets, sources], axis=1)
        graph = Graph(self.num_nodes, reversed_edges, weights, directed=True)
        graph.is_directed = self.is_directed
        return graph

    def with_uniform_weights(self, weight: float) -> "Graph":
        """Copy of the graph with every arc weight set to ``weight``."""
        if not 0.0 <= weight <= 1.0:
            raise GraphError(f"weight must be in [0, 1], got {weight}")
        sources, targets, _ = self.edge_arrays()
        edges = np.stack([sources, targets], axis=1)
        graph = Graph(self.num_nodes, edges, np.full(len(edges), weight), directed=True)
        graph.is_directed = self.is_directed
        return graph

    def remove_nodes(self, nodes: Sequence[int] | np.ndarray) -> tuple["Graph", np.ndarray]:
        """Graph with ``nodes`` deleted; returns ``(graph, kept_node_map)``."""
        drop = np.zeros(self.num_nodes, dtype=bool)
        node_array = np.asarray(nodes, dtype=np.int64)
        if node_array.size:
            drop[node_array] = True
        kept = np.flatnonzero(~drop)
        return self.subgraph(kept)

    # ------------------------------------------------------------------ #
    # Incremental edge mutation (live serving updates)
    # ------------------------------------------------------------------ #
    def _validate_edge_delta(
        self, edges: Sequence[tuple[int, int]] | np.ndarray
    ) -> np.ndarray:
        edge_array = np.asarray(edges, dtype=np.int64)
        if edge_array.size == 0:
            raise GraphError("edge delta must contain at least one edge")
        if edge_array.ndim != 2 or edge_array.shape[1] != 2:
            raise GraphError(
                f"edges must have shape (E, 2), got {edge_array.shape}"
            )
        if edge_array.min() < 0 or edge_array.max() >= self.num_nodes:
            raise GraphError("edge endpoints must be in [0, num_nodes)")
        return edge_array

    def add_edges(
        self,
        edges: Sequence[tuple[int, int]] | np.ndarray,
        weights: Sequence[float] | np.ndarray | None = None,
    ) -> "Graph":
        """New graph with ``edges`` added by **incremental CSR merge**.

        Each new arc is spliced into the end of its source bucket of the
        existing out-CSR (and its target bucket of the in-CSR) — no global
        re-sort, so the cost is O(E + delta) instead of O(E log E).  The
        result is identical to rebuilding from the concatenated edge list
        (``_build_csr``'s stable sort puts appended edges after existing
        ones in the same bucket).

        For undirected graphs each edge materialises both arc directions,
        mirroring the constructor.  Arcs already present (or duplicated
        within the delta) are rejected — live updates must be explicit
        about replacing an edge (remove, then add).
        """
        edge_array = self._validate_edge_delta(edges)
        if weights is None:
            weight_array = np.ones(len(edge_array), dtype=np.float64)
        else:
            weight_array = np.asarray(weights, dtype=np.float64)
            if weight_array.shape != (len(edge_array),):
                raise GraphError(
                    f"weights must have shape ({len(edge_array)},), "
                    f"got {weight_array.shape}"
                )
            _check_probabilities(weight_array)
        if not self.is_directed:
            edge_array = np.concatenate([edge_array, edge_array[:, ::-1]], axis=0)
            weight_array = np.concatenate([weight_array, weight_array])
        unique_rows, first_index = _unique_arcs(self.num_nodes, edge_array)
        if not self.is_directed:
            # Both directions of a self-loop collapse to one arc.
            edge_array = unique_rows
            weight_array = weight_array[first_index]
        elif len(unique_rows) != len(edge_array):
            raise GraphError("edge delta contains duplicate arcs")
        for source, target in edge_array:
            if self.has_edge(int(source), int(target)):
                raise GraphError(
                    f"arc ({int(source)}, {int(target)}) already present; "
                    "remove it before re-adding"
                )

        def merged(indptr, indices, csr_weights, bucket_of, other_of):
            order = np.argsort(bucket_of, kind="stable")
            buckets = bucket_of[order]
            positions = indptr[buckets + 1]
            new_indices = np.insert(indices, positions, other_of[order])
            new_weights = np.insert(csr_weights, positions, weight_array[order])
            delta_counts = np.bincount(buckets, minlength=self.num_nodes)
            new_indptr = indptr + np.concatenate(
                [[0], np.cumsum(delta_counts)]
            )
            return new_indptr, new_indices, new_weights

        sources, targets = edge_array[:, 0], edge_array[:, 1]
        out_csr = merged(
            self._out_indptr, self._out_indices, self._out_weights,
            sources, targets,
        )
        in_csr = merged(
            self._in_indptr, self._in_indices, self._in_weights,
            targets, sources,
        )
        return Graph.from_csr(
            self.num_nodes, out_csr, in_csr, directed=self.is_directed
        )

    def remove_edges(
        self, edges: Sequence[tuple[int, int]] | np.ndarray
    ) -> "Graph":
        """New graph with ``edges`` removed by **incremental CSR filter**.

        Every listed arc must be present (missing arcs raise
        :class:`GraphError` before anything is rebuilt); undirected graphs
        drop both arc directions of each edge.  Like :meth:`add_edges`
        this never re-sorts: surviving arcs keep their relative CSR order,
        so remove-then-re-add moves an arc to the end of its bucket (a new
        content fingerprint, same adjacency).
        """
        edge_array = self._validate_edge_delta(edges)
        if not self.is_directed:
            edge_array = np.concatenate([edge_array, edge_array[:, ::-1]], axis=0)
            edge_array, _ = _unique_arcs(self.num_nodes, edge_array)

        def filtered(indptr, indices, csr_weights, bucket_of, other_of):
            keep = np.ones(len(indices), dtype=bool)
            for bucket, other in zip(bucket_of, other_of):
                start, stop = indptr[bucket], indptr[bucket + 1]
                hits = np.flatnonzero(
                    (indices[start:stop] == other) & keep[start:stop]
                )
                if hits.size == 0:
                    raise GraphError(
                        f"arc ({int(bucket) if bucket_of is sources else int(other)}, "
                        f"{int(other) if bucket_of is sources else int(bucket)}) "
                        "is not present"
                    )
                # Duplicate arcs: drop the earliest-inserted copy, which is
                # the first in-bucket occurrence in *both* CSR directions.
                keep[start + hits[0]] = False
            # Each removed arc leaves its own bucket one shorter.
            counts = np.diff(indptr) - np.bincount(bucket_of, minlength=self.num_nodes)
            new_indptr = np.zeros(self.num_nodes + 1, dtype=np.int64)
            np.cumsum(counts, out=new_indptr[1:])
            return new_indptr, indices[keep], csr_weights[keep]

        sources, targets = edge_array[:, 0], edge_array[:, 1]
        out_csr = filtered(
            self._out_indptr, self._out_indices, self._out_weights,
            sources, targets,
        )
        in_csr = filtered(
            self._in_indptr, self._in_indices, self._in_weights,
            targets, sources,
        )
        return Graph.from_csr(
            self.num_nodes, out_csr, in_csr, directed=self.is_directed
        )

    # ------------------------------------------------------------------ #
    # Dense export (small graphs only)
    # ------------------------------------------------------------------ #
    def adjacency_matrix(self) -> np.ndarray:
        """Dense ``(|V|, |V|)`` weight matrix ``A[u, v] = w_uv``.

        Intended for small (sub)graphs; raises for graphs above 10k nodes to
        prevent accidental quadratic blow-ups.
        """
        if self.num_nodes > 10_000:
            raise GraphError("adjacency_matrix() is restricted to graphs with <= 10k nodes")
        matrix = np.zeros((self.num_nodes, self.num_nodes), dtype=np.float64)
        sources, targets, weights = self.edge_arrays()
        matrix[sources, targets] = weights
        return matrix

    def __repr__(self) -> str:
        kind = "directed" if self.is_directed else "undirected"
        return f"Graph(num_nodes={self.num_nodes}, num_arcs={self.num_edges}, {kind})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        if self.num_nodes != other.num_nodes or self.num_edges != other.num_edges:
            return False
        return (
            np.array_equal(self._out_indptr, other._out_indptr)
            and np.array_equal(self._out_indices, other._out_indices)
            and np.allclose(self._out_weights, other._out_weights)
        )

    def __hash__(self) -> int:  # pragma: no cover - graphs are not dict keys
        return id(self)
