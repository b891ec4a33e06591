"""Autograd-free inference forward with reusable scratch buffers.

Scoring a graph with trained weights is post-processing: it needs no tape,
and its cost is compute alone.  :meth:`repro.gnn.models.GNN.infer` and
each convolution's ``infer`` replay exactly the floating-point operations
of ``forward`` — the same operations, in the same order, on arrays of the
same shapes — on plain numpy arrays, so their output is byte-equal to an
autograd forward under ``no_grad``.  The attention layers go further: their
``forward`` and ``infer`` run one array core, so the equality holds by
construction.

What changes is where the large edge-rowed intermediates live.  A training
forward allocates the ``(E, 2W)`` attention pair matrix afresh in every
layer, because its backward reads it.  At serving sizes that is a
multi-MB block that the allocator returns to the kernel when it is freed,
so every call pays page faults to touch it again.  An
:class:`InferenceWorkspace` keeps such blocks: grow-only buffers that every
layer of a forward, and every later forward handed the same workspace,
writes into.  Aggregation and the single-head unweighted attention write
no ``(E, W)`` messages at all: one CSR product gathers, scales and
scatters the source rows (see :mod:`repro.nn.kernels`).  Structures that
depend only on the edge set (the CSR scatter matrices, the softmax
segment sorts, GCN's normalised edges) are built once per forward and
shared by all its layers.

A workspace is scratch for one forward at a time: two concurrent forwards
must not share one.
"""

from __future__ import annotations

import math
from typing import Hashable

import numpy as np
from scipy import sparse

from repro.errors import ShapeError
from repro.gnn.message_passing import check_edge_index, unit_edge_weights
from repro.nn import kernels

__all__ = ["EdgePass", "InferenceWorkspace"]


class InferenceWorkspace:
    """Grow-only named scratch buffers for inference forwards.

    :meth:`array` hands out a C-contiguous view of the first
    ``prod(shape)`` elements of the buffer registered under a name,
    reallocating only when the buffer is too small.  Contents are not
    preserved across calls.
    """

    #: Headroom on (re)allocation, so a served graph that gains a few edges
    #: does not free and reallocate every edge-rowed buffer.  Freeing a
    #: multi-MB block raises glibc's dynamic mmap threshold, and the
    #: forward's smaller temporaries then stay resident: with exact sizes the
    #: serve-mutate server's peak RSS rose from ~87 to ~102 MiB (see
    #: docs/performance.md).  Slack pages are never written, so they cost
    #: address space, not resident memory.
    GROWTH = 1.25

    def __init__(self) -> None:
        self._buffers: dict[Hashable, np.ndarray] = {}

    def array(self, name: Hashable, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """A ``shape`` view into the buffer named ``name`` (uninitialised)."""
        size = math.prod(shape)
        buffer = self._buffers.get(name)
        if buffer is None or buffer.size < size or buffer.dtype != dtype:
            buffer = np.empty(int(size * self.GROWTH) + 1, dtype=dtype)
            self._buffers[name] = buffer
        return buffer[:size].reshape(shape)


class EdgePass(kernels.EdgeSetMemo):
    """One forward's view of its graph.

    Holds the validated edges and weights, the inherited memo for index
    structures every layer shares, and where the large intermediates are
    written: the ``workspace`` of an inference forward, or fresh arrays
    (``workspace=None``) for a training forward, whose backward reads them.
    Build one per forward: the memo is only valid for the edge set it was
    built with.  A training forward passes its compute ``plan`` (built for
    the same edges), whose memo then serves every layer and iteration.
    """

    __slots__ = (
        "workspace", "num_nodes", "sources", "targets", "edge_weight", "_weight_column"
    )

    def __init__(
        self,
        edge_index: np.ndarray,
        edge_weight: np.ndarray | None,
        num_nodes: int,
        workspace: InferenceWorkspace | None = None,
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
        self.workspace = workspace
        self.sources, self.targets = self.edge_index[0], self.edge_index[1]
        self.edge_weight = self._weight_column = None
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

    def array(self, name: Hashable, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """Scratch for ``name``: a workspace view, or a fresh array without one."""
        if self.workspace is None:
            return np.empty(shape, dtype=dtype)
        return self.workspace.array(name, shape, dtype)

    def pair_index(self) -> np.ndarray:
        """``[s0, t0, s1, t1, ...]``: one gather fills both halves of a pair row."""

        def build() -> np.ndarray:
            index = self.array("pair_index", (self.num_edges, 2), np.int64)
            index[:, 0] = self.sources
            index[:, 1] = self.targets
            return index.reshape(-1)

        return self.memo("pair_index", build)

    def gather(self, x: np.ndarray, index: np.ndarray, name: str) -> np.ndarray:
        """``x[index]`` written into the scratch array ``name`` (see :meth:`array`).

        ``mode="clip"`` never clips (the index is validated), but unlike the
        default mode it lets ``np.take`` write straight into ``out``.
        """
        out = self.array(name, (len(index),) + x.shape[1:])
        return np.take(x, index, axis=0, out=out, mode="clip")

    def gather_scatter_matrix(self) -> sparse.csr_array:
        """Cached :func:`~repro.nn.kernels.scatter_matrix` gathering at
        sources onto targets, with the edge weights as its data.

        ``matrix @ x`` is ``out[v] = Σ_{(u, v)} w_uv · x[u]`` (see
        ``aggregate_neighbors``): each term is the autograd path's single
        rounded product ``x[u]·w`` (exact for ``w = 1``), added in edge
        order, so it is byte-equal to that path's gather, weight multiply
        and scatter.
        """
        return self.memo(
            ("scatter_matrix", "source", "target"),
            lambda: kernels.scatter_matrix(
                self.targets,
                self.num_nodes,
                columns=self.sources,
                num_columns=self.num_nodes,
                data=self.edge_weight,
                sort=self.segment_sort("target"),
            ),
        )


def relu_(values: np.ndarray) -> np.ndarray:
    """:func:`repro.nn.kernels.relu` written back into ``values``."""
    return kernels.relu(values, out=values)[0]
