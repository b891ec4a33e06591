"""Fused segment kernels: ``np.add.at``-free scatter reductions.

``np.add.at`` is the natural way to express "sum rows that share a segment
id" but NumPy executes it through the unbuffered ``ufunc.at`` machinery —
in practice 6-7x slower than ``np.bincount``.  Every kernel here is
**bit-identical** to that reference (the same floating-point operations in
the same order), not merely close.  That property is load-bearing: DP-SGD
noise calibration and the trainer's checkpoint/resume guarantees are stated
in terms of byte-equal gradients.

:func:`segment_sum` dispatches by row width.  1-D values and one column go
through ``np.bincount``, which adds its weights sequentially in input
order, exactly like ``np.add.at``.  Rows go through one CSR sparse–dense
product (``scipy.sparse.csr_array @ rows``) with the segments'
:func:`scatter_matrix`: scipy's ``csr_matvecs`` computes ``y[i] += a * x[j]``
over each row's stored entries in order, from ``+0.0``, and the matrix
stores each row's entries in stable segment order with ``a = 1``, so every
output adds the same terms in the same order.  :func:`gather_scale_scatter`
runs the same product with ``a`` a per-entry coefficient and ``j`` a
gathered row, in place of a gather, an ``(E, W)`` scale and a scatter: each
term is still one rounded product, then one add.  Both rest on scipy's
compiled loop neither reordering the adds nor fusing ``y += a * x`` into an
FMA; ``tests/test_nn_kernels.py`` checks each against the ``np.add.at``
oracle, so a scipy build that does either fails there.  One thing no path
pins: which of two NaNs of different bits survives an add is the compiled
loop's operand order.

``np.add.reduceat`` is deliberately *not* used for sums — it reduces runs
pairwise, in another order.  It is only safe for :func:`segment_max`,
where the maximum is exactly order-independent.

These kernels are the only scatter path in the autograd layer; the
``np.add.at`` reference lives in the test oracles.  The module keeps
dispatch counters the trainer mirrors into ``train.kernel.*`` metrics.

It also holds what the autograd forward and the autograd-free inference
forward must compute identically: the edge-set memo both per-edge-set plans
derive from, and the elementwise activations (:func:`relu`,
:func:`leaky_relu`, :func:`sigmoid`), each written once so the two paths
cannot drift apart by a single rounding.
"""

from __future__ import annotations

import copy
from collections import namedtuple
from typing import Callable, Hashable, TypeVar

import numpy as np
from scipy import sparse

from repro.utils.sorting import stable_argsort

__all__ = [
    "EdgeSetMemo",
    "SegmentSort",
    "build_segment_sort",
    "gather_scale_scatter",
    "kernel_stats",
    "leaky_relu",
    "relu",
    "reset_kernel_stats",
    "scatter_matrix",
    "segment_sum",
    "segment_mean",
    "segment_max",
    "segment_softmax",
    "segment_softmax_backward",
    "segment_bounds",
    "segment_matmul",
    "segment_matmul_t",
    "sigmoid",
]

_F64 = np.dtype(np.float64)
_I64 = np.dtype(np.int64)

_STATS: dict[str, int] = {}

T = TypeVar("T")


def _count(name: str, amount: int = 1) -> None:
    _STATS[name] = _STATS.get(name, 0) + amount


def kernel_stats() -> dict[str, int]:
    """Snapshot of the dispatch counters."""
    return dict(_STATS)


def reset_kernel_stats() -> None:
    """Zero the dispatch counters (workers call this per task)."""
    _STATS.clear()


# --------------------------------------------------------------------------- #
# Precomputable index structures (stored in compute plans)
# --------------------------------------------------------------------------- #
#: Stable sort of a segment array: ``order`` permutes entries so equal
#: segments are contiguous, ``starts`` indexes the first entry of each run,
#: and ``unique`` holds the segment id of each run.
SegmentSort = namedtuple("SegmentSort", ["order", "starts", "unique"])


def build_segment_sort(segments: np.ndarray) -> SegmentSort:
    """Precompute the stable sort permutation of non-negative ``segments``."""
    idx = np.asarray(segments, dtype=np.int64)
    order = stable_argsort(idx, int(idx.max()) + 1) if len(idx) else np.zeros(0, np.int64)
    sorted_segments = idx[order]
    if len(sorted_segments):
        boundaries = np.flatnonzero(
            np.r_[True, sorted_segments[1:] != sorted_segments[:-1]]
        )
    else:
        boundaries = np.zeros(0, dtype=np.int64)
    return SegmentSort(order=order, starts=boundaries, unique=sorted_segments[boundaries])


class EdgeSetMemo:
    """Build-once store for structures derived from one ``(2, E)`` edge set.

    Base of the training loop's compute plans and of the inference
    forward's per-call edge pass.  Memoised values must be pure functions
    of the edge set (never of model weights), so every layer that asks for
    the same key shares one build.
    """

    __slots__ = ("edge_index", "_memo")

    def __init__(
        self, edge_index: np.ndarray, memo: dict[Hashable, object] | None = None
    ) -> None:
        self.edge_index = edge_index
        # A shared ``memo`` lets a per-call view build into a longer-lived store.
        self._memo: dict[Hashable, object] = {} if memo is None else memo

    def memo(self, key: Hashable, builder: Callable[[], T]) -> T:
        """Return the value cached under ``key``, building it on first use."""
        try:
            return self._memo[key]  # type: ignore[return-value]
        except KeyError:
            value = builder()
            self._memo[key] = value
            return value

    def segment_sort(self, which: str) -> SegmentSort:
        """Cached stable sort of the edge ``"source"``/``"target"`` array."""
        return self.memo(
            ("segment_sort", which),
            lambda: build_segment_sort(self.edge_index[0 if which == "source" else 1]),
        )

    def scatter(self, values: np.ndarray, which: str, num_nodes: int) -> np.ndarray:
        """:func:`segment_sum` of edge-rowed ``values`` onto the ``which`` endpoints.

        Rows wider than one column go through a cached :func:`scatter_matrix`;
        narrower ones never build it.
        """
        segments = self.edge_index[0 if which == "source" else 1]
        matrix = None
        if values.size > len(values):
            matrix = self.memo(
                ("scatter_matrix", which),
                lambda: scatter_matrix(segments, num_nodes, sort=self.segment_sort(which)),
            )
        return segment_sum(values, segments, num_nodes, matrix=matrix)



def scatter_matrix(
    segments: np.ndarray,
    num_segments: int,
    *,
    columns: np.ndarray | None = None,
    num_columns: int | None = None,
    data: np.ndarray | None = None,
    sort: SegmentSort | None = None,
) -> sparse.csr_array:
    """CSR matrix with entry ``j`` at ``(segments[j], columns[j])``.

    Each row stores its entries in stable segment order (increasing ``j``),
    so ``matrix @ x`` computes
    ``out[s] = Σ_{j : segments[j] == s} data[j] · x[columns[j]]`` adding
    the terms in ``j`` order, as ``np.add.at`` does.  ``columns`` defaults
    to ``arange(E)`` (a plain scatter of ``(E, W)`` rows, with
    ``num_columns = E``), ``data`` to ones, and ``sort`` to
    :func:`build_segment_sort` of ``segments``.
    """
    idx = np.asarray(segments, dtype=np.int64)
    if sort is None:
        sort = build_segment_sort(idx)
    indptr = np.zeros(int(num_segments) + 1, dtype=np.int64)
    np.cumsum(np.bincount(idx, minlength=num_segments), out=indptr[1:])
    if columns is None:
        indices, num_columns = sort.order, len(idx)
    else:
        indices = np.asarray(columns, dtype=np.int64)[sort.order]
    values = np.ones(len(idx)) if data is None else np.asarray(data, dtype=np.float64)[sort.order]
    return sparse.csr_array(
        (values, indices, indptr), shape=(int(num_segments), int(num_columns))
    )


# --------------------------------------------------------------------------- #
# Elementwise activations
# --------------------------------------------------------------------------- #
def relu(values: np.ndarray, *, out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``values * (values > 0)`` (into ``out`` if given) and its boolean mask."""
    mask = values > 0
    return np.multiply(values, mask, out=out), mask


def leaky_relu(values: np.ndarray, negative_slope: float) -> tuple[np.ndarray, np.ndarray]:
    """``values * scale`` and ``scale``: 1 where positive, ``negative_slope`` elsewhere."""
    scale = np.where(values > 0, 1.0, negative_slope)
    return values * scale, scale


def sigmoid(values: np.ndarray) -> np.ndarray:
    """Logistic function, with inputs clipped to ±500 so ``exp`` cannot overflow."""
    return 1.0 / (1.0 + np.exp(-np.clip(values, -500, 500)))


# --------------------------------------------------------------------------- #
# Kernels
# --------------------------------------------------------------------------- #
def segment_sum(
    values: np.ndarray,
    segments: np.ndarray,
    num_segments: int,
    *,
    matrix: sparse.csr_array | None = None,
) -> np.ndarray:
    """``out[s] = Σ_{j : segments[j] == s} values[j]`` without ``np.add.at``.

    Accumulation order matches ``np.add.at`` exactly (see the module
    docstring), so results are bit-identical to the reference, including
    for ragged/empty/duplicated segments.

    Args:
        values: ``(E,)`` or ``(E, ...)`` float array of per-entry values.
        segments: ``(E,)`` int array of segment ids in ``[0, num_segments)``.
        num_segments: number of output rows ``S``.
        matrix: optional precomputed :func:`scatter_matrix` of ``segments``
            (plans and passes cache one per edge direction) — rows wider
            than one column then skip building it.
    """
    data = (
        values
        if type(values) is np.ndarray and values.dtype == _F64
        else np.asarray(values, dtype=np.float64)
    )
    rows = data.shape[0]
    out_shape = (int(num_segments),) + data.shape[1:]
    if rows == 0:
        return np.zeros(out_shape, dtype=np.float64)
    if data.size == rows:
        # 1-D values, or one column.
        _count("segment_sum.bincount")
        idx = (
            segments
            if type(segments) is np.ndarray and segments.dtype == _I64
            else np.asarray(segments, dtype=np.int64)
        )
        summed = np.bincount(idx, weights=data.reshape(rows), minlength=num_segments)
        return summed.reshape(out_shape)
    _count("segment_sum.csr")
    if matrix is None:
        matrix = scatter_matrix(segments, num_segments)
    return (matrix @ data.reshape(rows, -1)).reshape(out_shape)


def gather_scale_scatter(
    x: np.ndarray,
    coefficients: np.ndarray,
    matrix: sparse.csr_array,
    sort: SegmentSort,
) -> np.ndarray:
    """``out[s] = Σ_{j : segments[j] == s} coefficients[j] · x[columns[j]]``.

    One CSR product in place of a row gather, an ``(E, W)`` scale and a
    :func:`segment_sum`, and byte-equal to them: every term is the same
    single rounded product, added in the same order.  ``matrix`` is the
    :func:`scatter_matrix` of ``segments`` with ``columns`` (its own data
    is not read) and ``sort`` the :class:`SegmentSort` it was built from.
    The cached matrix is never written: the product runs on a shallow
    copy holding the permuted coefficients.
    """
    _count("gather_scale_scatter")
    scaled = copy.copy(matrix)
    scaled.data = np.take(coefficients, sort.order)
    return scaled @ x


def segment_bounds(sizes) -> np.ndarray:
    """Offsets ``[0, s_0, s_0+s_1, ...]`` for contiguous segment slicing.

    The bounds array of a disjoint-union batch: segment ``k`` occupies rows
    ``bounds[k]:bounds[k+1]`` of every concatenated per-row array.
    """
    array = np.asarray(list(sizes), dtype=np.int64)
    bounds = np.zeros(array.size + 1, dtype=np.int64)
    np.cumsum(array, out=bounds[1:])
    return bounds


def segment_matmul_t(
    x: np.ndarray,
    grad: np.ndarray,
    bounds: np.ndarray,
    out: np.ndarray,
    *,
    accumulate: bool = False,
) -> np.ndarray:
    """Per-segment ``x[s:e].T @ grad[s:e]`` into ``out`` of shape ``(K, ...)``.

    The parameter-gradient reduction of the vectorized batch path: each
    contiguous row segment's product is one BLAS call on contiguous
    operands with the same shapes and strides as the serial loop's
    whole-subgraph ``x_k.T @ g_k``, so every block is bit-identical to the
    reference, not merely close.  Empty segments produce exact-zero blocks
    (``(F, 0) @ (0, W)``).

    ``accumulate=False`` assigns each block (the first gradient
    contribution *adopts* the product, preserving signed zeros exactly like
    ``Tensor._accumulate_owned``); ``accumulate=True`` adds, matching the
    ``grad += ...`` of later contributions.
    """
    _count("segment_matmul_t")
    edges = bounds.tolist()
    for segment, (start, stop) in enumerate(zip(edges, edges[1:])):
        if accumulate:
            out[segment] += x[start:stop].T @ grad[start:stop]
        else:
            np.matmul(x[start:stop].T, grad[start:stop], out=out[segment])
    return out


def segment_matmul(x: np.ndarray, weight: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """``x @ weight`` computed one contiguous row segment at a time.

    Needed for bit-identity of the vectorized batch path's *forward*:
    BLAS's matrix-vector product (``weight`` with one column) is not
    row-stable — the tail rows of a tall matrix go through remainder code
    whose k-accumulation order differs from a short matrix's — so the
    disjoint union must issue exactly the per-subgraph products the serial
    loop issues.  Each segment's product is one BLAS call on a contiguous
    row block with the same shapes as the standalone subgraph call.
    """
    _count("segment_matmul")
    out = np.empty((x.shape[0], weight.shape[1]), dtype=np.float64)
    edges = bounds.tolist()
    for start, stop in zip(edges, edges[1:]):
        # ``out=`` issues the same BLAS call, writing the rows in place.
        np.matmul(x[start:stop], weight, out=out[start:stop])
    return out


def segment_mean(
    values: np.ndarray,
    segments: np.ndarray,
    num_segments: int,
) -> np.ndarray:
    """Per-segment mean; empty segments yield 0 (matching message passing)."""
    totals = segment_sum(values, segments, num_segments)
    _count("segment_mean")
    counts = np.bincount(
        np.asarray(segments, dtype=np.int64), minlength=num_segments
    ).astype(np.float64)
    counts[counts == 0] = 1.0
    if totals.ndim == 1:
        return totals / counts
    return totals / counts.reshape((num_segments,) + (1,) * (totals.ndim - 1))


def segment_max(
    values: np.ndarray,
    segments: np.ndarray,
    num_segments: int,
    *,
    fill: float = -np.inf,
    sort: SegmentSort | None = None,
) -> np.ndarray:
    """``out[s] = max_{j : segments[j] == s} values[j]`` (``fill`` if empty).

    Implemented as a stable sort by segment followed by
    ``np.maximum.reduceat`` over the runs.  Unlike sums, the maximum is
    exactly order-independent, so this is bit-identical to the
    ``np.maximum.at`` reference regardless of reduction order.

    Args:
        values: ``(E,)`` float array.
        segments: ``(E,)`` int array of segment ids.
        num_segments: number of output entries.
        fill: value for segments with no entries.
        sort: optional precomputed :func:`build_segment_sort` of
            ``segments`` (the compute plan caches one per softmax segment
            array) — skips the per-call argsort.
    """
    data = np.asarray(values, dtype=np.float64)
    out = np.full(int(num_segments), fill, dtype=np.float64)
    if data.shape[0] == 0:
        return out
    if sort is None:
        sort = build_segment_sort(segments)
    _count("segment_max.sorted")
    out[sort.unique] = np.maximum.reduceat(data[sort.order], sort.starts)
    return out


def segment_softmax(
    values: np.ndarray,
    segments: np.ndarray,
    num_segments: int,
    *,
    sort: SegmentSort | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Softmax of ``values`` within each segment, and the parts its gradient needs.

    Shifts every entry by its segment's maximum (a constant; empty or
    non-finite maxima shift by 0), exponentiates, sums the exponentials per
    segment and divides.  Returns ``(alpha, exp, denominator)``, where
    ``denominator`` is the per-segment sum gathered back to the entries.
    The autograd node and the inference forward both call this, so they
    share one sequence of floating-point operations.
    """
    seg_max = segment_max(values, segments, num_segments, sort=sort)
    seg_max[~np.isfinite(seg_max)] = 0.0  # empty segments
    exp = np.exp(values - seg_max[segments])
    denominator = segment_sum(exp, segments, num_segments)[segments]
    return exp / denominator, exp, denominator


def segment_softmax_backward(
    grad: np.ndarray,
    exp: np.ndarray,
    denominator: np.ndarray,
    segments: np.ndarray,
    num_segments: int,
) -> np.ndarray:
    """The logits' gradient, given ``alpha``'s and :func:`segment_softmax`'s parts.

    Replays the backward of the five-node composition the softmax
    replaces (shift → exp → scatter-add denominator → gather → divide) in
    its firing order: the division's two gradients, the gather's scatter
    of the denominator gradient, its scatter-add's gather back onto the
    numerator branch, then the exp.  The shift is a constant.
    """
    grad_exp = grad / denominator
    grad_denominator = -grad * exp / (denominator**2)
    grad_exp += segment_sum(grad_denominator, segments, num_segments)[segments]
    return grad_exp * exp
