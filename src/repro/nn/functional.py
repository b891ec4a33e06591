"""Functional operations built on :class:`~repro.nn.tensor.Tensor`.

Includes the segment (scatter/gather) primitives message passing is built
from: a GNN layer gathers source-node rows along edges, transforms them, and
scatter-adds them onto target nodes.  Segment softmax (needed by GAT/GRAT
attention) is composed from these primitives with a numerically-stabilising
constant shift.
"""

from __future__ import annotations

import numpy as np

from repro.errors import AutogradError, ShapeError
from repro.nn import kernels, per_example
from repro.nn.tensor import Tensor, _unbroadcast, concat

_INT64 = np.dtype(np.int64)

__all__ = [
    "concat",
    "gather_rows",
    "scale_rows_one_plus",
    "scatter_add_rows",
    "segment_softmax",
    "segment_sum",
    "sigmoid",
    "relu",
    "leaky_relu",
    "clamp01",
    "one_minus_exp",
    "log_sigmoid",
    "softmax",
]


def gather_rows(tensor: Tensor, indices: np.ndarray) -> Tensor:
    """Row gather ``tensor[indices]`` (see :meth:`Tensor.gather_rows`)."""
    return Tensor._lift(tensor).gather_rows(indices)


def scatter_add_rows(
    tensor: Tensor,
    indices: np.ndarray,
    num_rows: int,
    *,
    flat_index: np.ndarray | None = None,
) -> Tensor:
    """Scatter-add rows of ``tensor`` into a ``(num_rows, ...)`` output.

    ``out[i] = Σ_{j : indices[j] == i} tensor[j]`` — the aggregation step of
    message passing.  The gradient is a row gather.

    The forward runs through :func:`repro.nn.kernels.segment_sum`, which is
    bit-identical to the ``np.add.at`` reference; ``flat_index`` optionally
    carries the precomputed combined index a compute plan caches for wide
    features.
    """
    source = Tensor._lift(tensor)
    idx = (
        indices
        if type(indices) is np.ndarray and indices.dtype == _INT64
        else np.asarray(indices, dtype=np.int64)
    )
    if idx.ndim != 1 or len(idx) != source.shape[0]:
        raise ShapeError(
            f"indices must be 1-D with length {source.shape[0]}, got shape {idx.shape}"
        )
    # A caller-supplied flat_index comes from a compute plan built over
    # already-validated edges, so the range scan can be skipped.
    if flat_index is None and len(idx) and (idx.min() < 0 or idx.max() >= num_rows):
        raise AutogradError("scatter indices out of range")
    out_data = kernels.segment_sum(source.data, idx, num_rows, flat_index=flat_index)

    def backward_fn(grad: np.ndarray) -> None:
        if source.requires_grad:
            source._accumulate_owned(grad[idx])

    return source._make(out_data, (source,), backward_fn)


def segment_sum(values: Tensor, segments: np.ndarray, num_segments: int) -> Tensor:
    """Alias of :func:`scatter_add_rows` with segment terminology."""
    return scatter_add_rows(values, segments, num_segments)


def scale_rows_one_plus(x: Tensor, epsilon: Tensor) -> Tensor:
    """Fused ``x * (1.0 + epsilon)`` — GIN's ``(1 + ω)·h_v`` self term.

    Forward and backward replay the composed two-node chain's
    floating-point operations in order, so results and gradients are
    bit-identical.  The op exists so the per-example capture can attribute
    the reduction to ``epsilon`` directly: composed, the parameter sits
    behind an intermediate ``1 + ω`` tensor that generic interception
    cannot see through.
    """
    source = Tensor._lift(x)
    eps = Tensor._lift(epsilon)
    factor = eps.data + np.asarray(1.0, dtype=np.float64)
    out_data = source.data * factor

    def backward_fn(grad: np.ndarray) -> None:
        if source.requires_grad:
            source._accumulate_owned(_unbroadcast(grad * factor, source.shape))
        if eps.requires_grad:
            g_eps = grad * source.data
            capture = per_example.active_capture()
            if capture is not None and eps._is_parameter:
                capture.reduce_nodes(eps, g_eps)
            else:
                eps._accumulate(_unbroadcast(g_eps, eps.shape))

    return source._make(out_data, (source, eps), backward_fn)


def segment_softmax(
    logits: Tensor,
    segments: np.ndarray,
    num_segments: int,
    *,
    sort: "kernels.SegmentSort | None" = None,
) -> Tensor:
    """Softmax over groups of entries that share a segment id.

    Used for attention coefficients: ``logits`` holds one score per edge and
    ``segments`` the node each edge's score is normalised over (targets for
    GAT, sources for GRAT).  Empty segments contribute nothing.

    Args:
        logits: 1-D tensor of per-edge scores.
        segments: 1-D int array, same length, segment id per score.
        num_segments: total number of segments.
        sort: optional precomputed segment sort of ``segments`` (from
            :func:`repro.nn.kernels.build_segment_sort`) reused for the
            stabilising per-segment max.
    """
    source = Tensor._lift(logits)
    if source.ndim != 1:
        raise ShapeError(f"segment_softmax expects 1-D logits, got shape {source.shape}")
    idx = (
        segments
        if type(segments) is np.ndarray and segments.dtype == _INT64
        else np.asarray(segments, dtype=np.int64)
    )

    if len(idx) != source.shape[0]:
        raise ShapeError(
            f"segments must have length {source.shape[0]}, got {len(idx)}"
        )
    if len(idx) and (idx.min() < 0 or idx.max() >= num_segments):
        raise AutogradError("scatter indices out of range")

    # Fused single-node softmax.  Its forward and backward
    # (kernels.segment_softmax and segment_softmax_backward) perform the
    # exact floating-point operations, in the exact order, of the five-node
    # composition they replace (subtract-shift → exp → scatter-add
    # denominator → gather → divide), so results and gradients are
    # bit-identical while the graph carries one node instead of five.
    alpha, exp, denom_gathered = kernels.segment_softmax(
        source.data, idx, num_segments, sort=sort
    )

    def backward_fn(grad: np.ndarray) -> None:
        if source.requires_grad:
            source._accumulate_owned(
                kernels.segment_softmax_backward(
                    grad, exp, denom_gathered, idx, num_segments
                )
            )

    return source._make(alpha, (source,), backward_fn)


def softmax(tensor: Tensor, axis: int = -1) -> Tensor:
    """Standard softmax along ``axis`` (stabilised by a constant shift)."""
    source = Tensor._lift(tensor)
    shift = np.max(source.data, axis=axis, keepdims=True)
    exp = (source - Tensor(shift)).exp()
    return exp / exp.sum(axis=axis if axis >= 0 else source.ndim + axis, keepdims=True)


def sigmoid(tensor: Tensor) -> Tensor:
    """Elementwise logistic function."""
    return Tensor._lift(tensor).sigmoid()


def relu(tensor: Tensor) -> Tensor:
    """Elementwise rectifier."""
    return Tensor._lift(tensor).relu()


def leaky_relu(tensor: Tensor, negative_slope: float = 0.2) -> Tensor:
    """Elementwise leaky rectifier (GAT/GRAT attention default slope 0.2)."""
    return Tensor._lift(tensor).leaky_relu(negative_slope)


def clamp01(tensor: Tensor) -> Tensor:
    """The paper's φ choice mapping aggregates into ``[0, 1]``: clip.

    Gradient is identity strictly inside (0, 1) and zero outside, matching
    the straight-clip activation used for Theorem 2's probability bound.
    """
    return Tensor._lift(tensor).clamp(0.0, 1.0)


def one_minus_exp(tensor: Tensor) -> Tensor:
    """Smooth alternative φ: ``1 - exp(-max(x, 0))`` maps ``[0, ∞) → [0, 1)``.

    Unlike :func:`clamp01` it never saturates with exactly-zero gradient for
    positive inputs; offered as the ablation alternative in DESIGN.md.
    """
    positive = Tensor._lift(tensor).relu()
    return 1.0 - (-positive).exp()


def log_sigmoid(tensor: Tensor) -> Tensor:
    """Numerically stable ``log(sigmoid(x))`` used by some losses."""
    source = Tensor._lift(tensor)
    # log(sigmoid(x)) = -softplus(-x); build from primitives.
    return -softplus(-source)


def softplus(tensor: Tensor) -> Tensor:
    """``log(1 + exp(x))`` via the stable shifted decomposition.

    ``softplus(x) = m + log(exp(-m) + exp(x - m))`` with the constant shift
    ``m = max(x, 0)``; both exponents are ≤ 0 so nothing overflows, and the
    gradient reduces to ``sigmoid(x)`` exactly.
    """
    source = Tensor._lift(tensor)
    shift = np.maximum(source.data, 0.0)  # treated as a constant
    shifted_exp = (source - Tensor(shift)).exp()
    return Tensor(shift) + (Tensor(np.exp(-shift)) + shifted_exp).log()


__all__.append("softplus")
