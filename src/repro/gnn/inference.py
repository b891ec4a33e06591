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
forward allocates the ``(E, 2W)`` attention pair matrix, the ``(E, W)``
messages and the ``(E, W)`` flat scatter index afresh in every layer,
because its backward reads them.  At serving sizes those are multi-MB
blocks that the allocator returns to the kernel when they are freed, so
every call pays page faults to touch them again.  An
:class:`InferenceWorkspace` keeps them: grow-only buffers that every layer
of a forward, and every later forward handed the same workspace, writes
into.  Index structures that depend only on the edge set (the scatter
indices, the softmax segment sort, GCN's normalised edges) are built once
per forward and shared by all its layers.

A workspace is scratch for one forward at a time: two concurrent forwards
must not share one.
"""

from __future__ import annotations

import math
from typing import Hashable

import numpy as np

from repro.errors import ShapeError
from repro.gnn.message_passing import check_edge_index, unit_edge_weights
from repro.nn import kernels

__all__ = ["EdgePass", "InferenceWorkspace"]

#: Memo keys of the flat scatter indices onto the pass's own edge targets
#: and sources (the training plan's names for them).
TARGETS = ("gather.flat", "target")
SOURCES = ("gather.flat", "source")


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

    def scatter_add(
        self, messages: np.ndarray, segments: np.ndarray, key: tuple = TARGETS
    ) -> np.ndarray:
        """Row scatter-add onto ``segments`` (a fresh ``(N, W)`` array).

        Dispatches exactly as the autograd scatter does for this width.
        """
        width = math.prod(messages.shape[1:])
        flat = self.flat_index(segments, width, key) if messages.ndim > 1 else None
        return kernels.segment_sum(messages, segments, self.num_nodes, flat_index=flat)

    def flat_index(self, segments: np.ndarray, width: int, key: tuple) -> np.ndarray | None:
        """The scatter onto ``segments`` at ``width``'s flat index, if it uses one.

        Memoised under ``key + (width,)``, where ``key`` names the segment
        array, so it is built once per pass (per plan, in training).
        """
        if width <= kernels.COLUMN_WIDTH_THRESHOLD:
            return None
        name = key + (width,)
        return self.memo(name, lambda: self._flat_index(name, segments, width))

    def _flat_index(self, name: tuple, segments: np.ndarray, width: int) -> np.ndarray:
        # Same integers as kernels.flat_scatter_index, without its two
        # (E, W) temporaries.
        index = self.array(name, (len(segments), width), np.int64)
        np.multiply(segments[:, None], width, out=index)
        index += np.arange(width, dtype=np.int64)
        return index.reshape(-1)

    def aggregate(
        self,
        x: np.ndarray,
        *,
        key: tuple = TARGETS,
        sources: np.ndarray | None = None,
        targets: np.ndarray | None = None,
        weight_column: np.ndarray | None = None,
    ) -> np.ndarray:
        """``out[v] = Σ_{(u, v)} w_uv · x[u]`` (see ``aggregate_neighbors``).

        Defaults to this pass's own edges; ``key`` names any other edge set
        (GCN's self-loop-augmented one) so its scatter index is kept apart.
        """
        sources = self.sources if sources is None else sources
        targets = self.targets if targets is None else targets
        messages = self.gather(x, sources, "messages")
        if weight_column is not None:
            np.multiply(messages, weight_column, out=messages)
        return self.scatter_add(messages, targets, key)


def relu_(values: np.ndarray) -> np.ndarray:
    """:func:`repro.nn.kernels.relu` written back into ``values``."""
    return kernels.relu(values, out=values)[0]
