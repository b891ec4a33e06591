"""Autograd-free inference forward.

Scoring a graph with trained weights is post-processing: it needs no tape,
and its cost is compute alone.  :meth:`repro.gnn.models.GNN.infer` and
each convolution's ``infer`` replay exactly the floating-point operations
of ``forward`` — the same operations, in the same order, on arrays of the
same shapes — on plain numpy arrays, so their output is byte-equal to an
autograd forward under ``no_grad``.  The attention layers go further: their
``forward`` and ``infer`` run one array core, so the equality holds by
construction.

No forward writes an edge-rowed matrix wider than one column unless it
must.  Aggregation and single-head unweighted attention gather, scale and
scatter the source rows in one CSR product (see :mod:`repro.nn.kernels`),
and attention logits come from per-node scores, with no ``(E, 2W)`` pair
matrix.  Only weighted or multi-head attention writes ``(E, W)`` messages,
as fresh arrays.  Structures that depend only on the edge set (the CSR
scatter matrices, the softmax segment sorts, GCN's normalised edges) are
built once per forward and shared by all its layers.

:meth:`GNN.infer <repro.gnn.models.GNN.infer>` writes the attention
layers' node-rowed arrays (the transformed features, and the single-head
unweighted output) into :func:`node_scratch`, buffers that outlive the
forward.  A fresh ``(N, W)`` block per layer would be freed at the end of
the forward, the allocator would give its pages back to the system, and
the next forward would fault them in again: ~115 minor faults per layer on
a 1,900-node graph at width 32.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator

import numpy as np

from repro.errors import ShapeError
from repro.gnn.message_passing import check_edge_index, unit_edge_weights
from repro.nn import kernels

__all__ = ["EdgePass", "node_scratch"]


class EdgePass(kernels.EdgeSetMemo):
    """One forward's view of its graph.

    Holds the validated edges and weights and the inherited memo for index
    structures every layer shares.  Build one per forward: the memo is only
    valid for the edge set it was built with.  A training forward passes
    its compute ``plan`` (built for the same edges), whose memo then serves
    every layer and iteration.  ``scratch`` is the :func:`node_scratch`
    dict its forward holds, or ``None``: layers then write fresh arrays.
    """

    __slots__ = ("num_nodes", "sources", "targets", "edge_weight", "_weight_column", "scratch")

    def __init__(
        self,
        edge_index: np.ndarray,
        edge_weight: np.ndarray | None,
        num_nodes: int,
        *,
        plan: kernels.EdgeSetMemo | None = None,
    ) -> None:
        self.num_nodes = int(num_nodes)
        if plan is None:
            super().__init__(check_edge_index(edge_index, self.num_nodes))
        else:
            super().__init__(
                plan.memo(
                    ("agg.edges", "base"),
                    lambda: check_edge_index(edge_index, self.num_nodes),
                ),
                plan._memo,
            )
        self.sources, self.targets = self.edge_index[0], self.edge_index[1]
        self.edge_weight = self._weight_column = self.scratch = None
        if edge_weight is not None:
            self.edge_weight = np.asarray(edge_weight, dtype=np.float64)
            if self.edge_weight.shape != (self.num_edges,):
                raise ShapeError(
                    f"edge_weight must have shape ({self.num_edges},), "
                    f"got {self.edge_weight.shape}"
                )
            # Multiplying by all-ones weights is exact, so it is skipped.
            if not unit_edge_weights(self.edge_weight, plan):
                self._weight_column = self.edge_weight.reshape(-1, 1)

    @property
    def num_edges(self) -> int:
        return int(self.edge_index.shape[1])

    def edge_weight_column(self) -> np.ndarray | None:
        """The ``(E, 1)`` weight column, or ``None`` when weighting is a no-op."""
        return self._weight_column

    def node_buffer(self, name: str, shape: tuple[int, int]) -> np.ndarray | None:
        """The scratch buffer ``name``, of exactly ``shape``, or ``None`` without scratch.

        A buffer of another shape is replaced.
        """
        if self.scratch is None:
            return None
        buffer = self.scratch.get(name)
        if buffer is None or buffer.shape != shape:
            buffer = self.scratch[name] = np.empty(shape)
        return buffer

    def output_buffer(self, x: np.ndarray, shape: tuple[int, int]) -> np.ndarray | None:
        """A layer's output buffer: of a ping-pong pair, the one not holding its input ``x``.

        Writing over ``x`` would give the same bytes (a layer reads it only
        for ``x @ W``), but then the forward's other temporaries kept
        faulting: 146 minor faults per warm forward on a 1,900-node graph
        at width 32, against none with the pair.
        """
        held = None if self.scratch is None else self.scratch.get("output.a")
        name = "output.b" if held is not None and np.may_share_memory(held, x) else "output.a"
        return self.node_buffer(name, shape)

    def aggregate(self, x: np.ndarray) -> np.ndarray:
        """``out[v] = Σ_{(u, v)} w_uv · x[u]`` (see ``aggregate_neighbors``).

        One :func:`~repro.nn.kernels.gather_scale_scatter` product: each
        term is the autograd path's single rounded product ``x[u]·w``
        (exact for ``w = 1``), added in edge order, so it is byte-equal to
        that path's gather, weight multiply and scatter.
        """
        weights = np.ones(self.num_edges) if self.edge_weight is None else self.edge_weight
        matrix = self.edge_matrix("target", "source", self.num_nodes)
        return kernels.gather_scale_scatter(x, weights, matrix, self.segment_sort("target"))


def relu_(values: np.ndarray) -> np.ndarray:
    """:func:`repro.nn.kernels.relu` written back into ``values``."""
    return kernels.relu(values, out=values)[0]


_SCRATCH: dict[str, np.ndarray] = {}
_SCRATCH_LOCK = threading.Lock()


@contextmanager
def node_scratch() -> Iterator[dict[str, np.ndarray] | None]:
    """The process's named node-rowed float64 buffers, or ``None`` if taken.

    One forward at a time holds them: the lock is taken without blocking,
    and a forward that finds it held (another thread scoring, or a child
    forked while a thread held it) gets ``None`` and runs on fresh arrays,
    with the same bytes.  The buffers keep their exact shapes, so between
    forwards they hold a few ``N × W`` blocks of the last graph scored.
    Nothing they hold may leave the forward.
    """
    if not _SCRATCH_LOCK.acquire(blocking=False):
        yield None
        return
    try:
        yield _SCRATCH
    finally:
        _SCRATCH_LOCK.release()
