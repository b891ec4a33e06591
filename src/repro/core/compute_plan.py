"""Static per-subgraph compute plans for the training loop.

The subgraph container is frozen for the whole of Algorithm 2, yet the
original trainer re-derived every piece of static per-subgraph data — edge
index, weight vector, GCN self-loop normalisations, attention sort
permutations, degree features — on *every* forward/backward pass of every
iteration.  A :class:`ComputePlan` materialises that data once per subgraph
and hands it to the model, layers, and loss; :class:`ComputePlanCache`
holds one plan per container slot (generalising the trainer's old
``_feature_cache``).

Plans carry only graph-derived arrays (never model weights or RNG state),
so they are safe to share read-only across the gradient fan-out's worker
processes — zero-copy under ``fork``, pickled once per worker under
``spawn`` — and sharing them cannot affect training results.

Invalidation is by container *identity*: a cache is constructed for one
container object and serves exactly that object's subgraphs.  Containers
are append-frozen during training (the trainer owns the container for its
lifetime), so no finer-grained invalidation is needed; a different
container simply gets a fresh cache.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.errors import TrainingError
from repro.gnn.features import degree_features
from repro.graphs.graph import Graph
from repro.nn import kernels
from repro.sampling.container import SubgraphSource

__all__ = ["BatchedComputePlan", "ComputePlan", "ComputePlanCache"]


class ComputePlan(kernels.EdgeSetMemo):
    """Precomputed static data for one subgraph.

    The always-needed arrays (``edge_index``, ``edge_weight``) are built
    eagerly; everything layer-specific goes through the inherited
    :meth:`~repro.nn.kernels.EdgeSetMemo.memo`, a build-once store keyed by
    the caller.  Layers use it for derived structures the plan cannot know
    about (GCN's self-loop-normalised edge set, attention-softmax sort
    permutations, CSR scatter matrices), which also deduplicates work
    across layers: every GCN layer of a stack shares one normalisation,
    every GRAT layer one source-sort.

    Memoised values must be pure functions of the subgraph structure —
    never of model weights — so a plan computed once is valid for the whole
    run and for every worker process.
    """

    __slots__ = ("graph", "num_nodes", "edge_weight")

    def __init__(self, graph: Graph) -> None:
        super().__init__(graph.edge_index())
        self.graph = graph
        self.num_nodes = int(graph.num_nodes)
        self.edge_weight = graph.edge_arrays()[2]

    def features(self, dim: int) -> np.ndarray:
        """Deterministic degree features of this subgraph: the read-only
        array the graph stores, shared by every plan of the same graph."""
        return degree_features(self.graph, dim=dim)


class _UnionGraph:
    """Minimal graph facade for a disjoint union of subgraphs.

    A :class:`BatchedComputePlan` never rebuilds a :class:`Graph` for the
    union — the member plans already hold every edge array — but layers
    consult ``plan.graph`` for two things: the node count and the
    unit-weight fast path (see ``unit_edge_weights``).  Both are cheap
    aggregates of the members.
    """

    __slots__ = ("num_nodes", "num_edges", "has_unit_weights")

    def __init__(self, num_nodes: int, num_edges: int, has_unit_weights: bool) -> None:
        self.num_nodes = int(num_nodes)
        self.num_edges = int(num_edges)
        self.has_unit_weights = bool(has_unit_weights)


class BatchedComputePlan(ComputePlan):
    """Disjoint-union plan over a batch of per-subgraph plans.

    Concatenates the member edge sets with node indices offset by the
    running node count, producing one block-diagonal graph whose forward
    pass computes every member's activations in a single pass.  Member
    boundaries are exposed as ``node_bounds``/``edge_bounds`` (cumulative
    offsets, length ``B + 1``); the node bounds serve the per-example
    capture and per-example losses.

    Features are the *concatenation of the members' own feature matrices*,
    never ``degree_features`` of the union: degree features are
    max-normalised per graph and their random channels are seeded by graph
    size, so recomputing them on the union would change values and break
    bit-identity with the serial loop.
    """

    __slots__ = ("plans", "node_bounds", "edge_bounds")

    def __init__(self, plans: list[ComputePlan]) -> None:
        if not plans:
            raise TrainingError("BatchedComputePlan needs at least one plan")
        self.plans = list(plans)
        self.node_bounds = kernels.segment_bounds(
            plan.num_nodes for plan in self.plans
        )
        self.edge_bounds = kernels.segment_bounds(
            plan.edge_index.shape[1] for plan in self.plans
        )
        self.num_nodes = int(self.node_bounds[-1])
        kernels.EdgeSetMemo.__init__(
            self,
            np.concatenate(
                [
                    plan.edge_index + offset
                    for plan, offset in zip(self.plans, self.node_bounds[:-1])
                ],
                axis=1,
            ),
        )
        self.edge_weight = np.concatenate(
            [plan.edge_weight for plan in self.plans]
        )
        self.graph = _UnionGraph(
            self.num_nodes,
            self.edge_index.shape[1],
            all(plan.graph.has_unit_weights for plan in self.plans),
        )

    def features(self, dim: int) -> np.ndarray:
        """Concatenated member features (cached per dim)."""
        return self.memo(
            ("features", int(dim)),
            lambda: np.concatenate(
                [plan.features(dim) for plan in self.plans], axis=0
            ),
        )


class ComputePlanCache:
    """One :class:`ComputePlan` per slot of a fixed subgraph source.

    Plans build lazily on first access; :meth:`prebuild` forces them all
    (the trainer does this before forking gradient workers so the arrays
    are shared copy-on-write instead of rebuilt per process).

    For an in-memory container the cache is unbounded — one plan per slot
    for the whole run.  For an on-disk :class:`~repro.sampling.store.
    SubgraphStore` an unbounded cache would quietly re-materialise the
    entire pool in RAM, defeating the store, so the trainer passes
    ``max_plans`` and the cache evicts least-recently-used plans beyond
    that bound.  Plans are pure functions of subgraph structure, so
    eviction and rebuild can never change results — only timing.
    """

    def __init__(
        self, container: SubgraphSource, *, max_plans: int | None = None
    ) -> None:
        if max_plans is not None and max_plans < 1:
            raise TrainingError(f"max_plans must be >= 1, got {max_plans}")
        self._container = container
        self._max_plans = max_plans
        self._plans: OrderedDict[int, ComputePlan] = OrderedDict()

    @property
    def container(self) -> SubgraphSource:
        return self._container

    @property
    def max_plans(self) -> int | None:
        return self._max_plans

    def matches(self, container: SubgraphSource) -> bool:
        """Whether this cache was built for exactly ``container``."""
        return self._container is container

    def plan(self, index: int) -> ComputePlan:
        """The plan for source slot ``index`` (built on first use)."""
        index = int(index)
        plan = self._plans.get(index)
        if plan is not None:
            if self._max_plans is not None:
                self._plans.move_to_end(index)
            return plan
        if not 0 <= index < len(self._container):
            raise TrainingError(
                f"plan index {index} out of range [0, {len(self._container)})"
            )
        plan = ComputePlan(self._container[index].graph)
        self._plans[index] = plan
        if self._max_plans is not None and len(self._plans) > self._max_plans:
            self._plans.popitem(last=False)
        return plan

    def prebuild(self, feature_dim: int | None = None) -> None:
        """Force-build every plan (and optionally its feature matrix).

        Meaningless for a bounded cache (later builds would evict earlier
        ones), so bounded caches reject it.
        """
        if self._max_plans is not None and len(self._container) > self._max_plans:
            raise TrainingError(
                f"cannot prebuild {len(self._container)} plans into a cache "
                f"bounded at {self._max_plans}"
            )
        for index in range(len(self._container)):
            plan = self.plan(index)
            if feature_dim is not None:
                plan.features(feature_dim)

    def __len__(self) -> int:
        return len(self._plans)
