"""Fused segment kernels: ``np.add.at``-free scatter reductions.

``np.add.at`` is the natural way to express "sum rows that share a segment
id" but NumPy executes it through the unbuffered ``ufunc.at`` machinery,
which walks the index array in interpreted-strength code — in practice 6-7x
slower than an equivalent ``np.bincount``.  Crucially, ``np.bincount``
accumulates its weights *sequentially in input order*, exactly like
``np.add.at``, so every kernel here is **bit-identical** to the reference
(same floating-point operations in the same order), not merely close.  That
property is load-bearing: DP-SGD noise calibration and the trainer's
checkpoint/resume guarantees are stated in terms of byte-equal gradients.

``np.add.reduceat`` is deliberately *not* used for sums — it reduces runs
with pairwise/blocked summation whose operation order differs from the
serial reference.  It is only safe for :func:`segment_max`, where the
maximum is exactly order-independent.

Dispatch for 2-D scatter-adds is chosen by feature width:

* width ``<= COLUMN_WIDTH_THRESHOLD`` — one ``np.bincount`` per column
  (avoids materialising a combined index);
* wider — a single flattened ``np.bincount`` over the combined index
  ``segment * width + column``; callers that precompute this index (the
  static compute plan does) skip its construction entirely.

These kernels are the only scatter path in the autograd layer; the
``np.add.at`` reference lives in the test oracles, which check the
bit-identity.  The module keeps dispatch counters the trainer mirrors into
``train.kernel.*`` metrics.

It also holds what the autograd forward and the autograd-free inference
forward must compute identically: the edge-set memo both per-edge-set plans
derive from, and the elementwise activations (:func:`relu`,
:func:`leaky_relu`, :func:`sigmoid`), each written once so the two paths
cannot drift apart by a single rounding.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Callable, Hashable, TypeVar

import numpy as np

__all__ = [
    "COLUMN_WIDTH_THRESHOLD",
    "EdgeSetMemo",
    "SegmentSort",
    "build_segment_sort",
    "flat_scatter_index",
    "kernel_stats",
    "leaky_relu",
    "relu",
    "reset_kernel_stats",
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

#: 2-D widths up to this use the per-column bincount path; wider feature
#: matrices use one flattened bincount over the combined index.
COLUMN_WIDTH_THRESHOLD = 4

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
    """Precompute the stable target-sort permutation for ``segments``."""
    idx = np.asarray(segments, dtype=np.int64)
    order = np.argsort(idx, kind="stable")
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
        row = 0 if which == "source" else 1
        return self.memo(
            ("segment_sort", which),
            lambda: build_segment_sort(self.edge_index[row]),
        )


def flat_scatter_index(segments: np.ndarray, width: int) -> np.ndarray:
    """Combined index ``segment * width + column`` for the flattened path."""
    idx = np.asarray(segments, dtype=np.int64)
    return (idx[:, None] * int(width) + np.arange(int(width), dtype=np.int64)).ravel()


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
    flat_index: np.ndarray | None = None,
) -> np.ndarray:
    """``out[s] = Σ_{j : segments[j] == s} values[j]`` without ``np.add.at``.

    Accumulation order matches ``np.add.at`` exactly (``np.bincount`` adds
    weights sequentially in input order), so results are bit-identical to
    the reference, including for ragged/empty/duplicated segments.

    Args:
        values: ``(E,)`` or ``(E, ...)`` float array of per-entry values.
        segments: ``(E,)`` int array of segment ids in ``[0, num_segments)``.
        num_segments: number of output rows ``S``.
        flat_index: optional precomputed :func:`flat_scatter_index` of
            ``segments`` for ``width = prod(values.shape[1:])`` — skips
            rebuilding the combined index on the wide path.
    """
    data = (
        values
        if type(values) is np.ndarray and values.dtype == _F64
        else np.asarray(values, dtype=np.float64)
    )
    if flat_index is not None and data.shape[0]:
        # Hottest path: a compute plan supplied the combined index, so the
        # segment ids themselves are never touched.
        _count("segment_sum.flat")
        rows = data.shape[0]
        width = data.size // rows
        summed = np.bincount(
            flat_index, weights=data.reshape(rows * width), minlength=num_segments * width
        )
        return summed.reshape((int(num_segments),) + data.shape[1:])
    idx = (
        segments
        if type(segments) is np.ndarray and segments.dtype == _I64
        else np.asarray(segments, dtype=np.int64)
    )
    out_shape = (int(num_segments),) + data.shape[1:]
    if data.shape[0] == 0:
        return np.zeros(out_shape, dtype=np.float64)

    if data.ndim == 1:
        _count("segment_sum.vec")
        return np.bincount(idx, weights=data, minlength=num_segments)

    width = 1
    for dim in data.shape[1:]:
        width *= dim
    flat = data.reshape(data.shape[0], width)
    if width <= COLUMN_WIDTH_THRESHOLD and flat_index is None:
        _count("segment_sum.col")
        out = np.empty((num_segments, width), dtype=np.float64)
        for column in range(width):
            out[:, column] = np.bincount(
                idx, weights=flat[:, column], minlength=num_segments
            )
        return out.reshape(out_shape)

    _count("segment_sum.flat")
    if flat_index is None:
        flat_index = flat_scatter_index(idx, width)
    summed = np.bincount(
        flat_index, weights=flat.ravel(), minlength=num_segments * width
    )
    return summed.reshape(out_shape)


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
    *,
    flat_index: np.ndarray | None = None,
) -> np.ndarray:
    """Per-segment mean; empty segments yield 0 (matching message passing)."""
    totals = segment_sum(values, segments, num_segments, flat_index=flat_index)
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
