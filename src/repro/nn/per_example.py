"""Per-example parameter-gradient capture (ghost-clipping style).

The vectorized gradient path runs ONE forward/backward over the disjoint
union of a batch's subgraphs.  On a block-diagonal graph every activation
row — and every activation *gradient* row — stays local to its subgraph;
the only places examples meet are the parameter-gradient reductions (each
Linear's ``X.T @ G``, the bias row-sum, the attention-vector reduction,
GIN's epsilon).  A :class:`PerExampleCapture` intercepts exactly those
reductions and computes them per contiguous row segment instead, yielding
one full per-subgraph gradient from a single backward.  Each segment
reduction performs the same floating-point operations, in the same order,
on the same values as the serial loop's whole-subgraph reduction, so the
recovered gradients are **bit-identical** to the per-subgraph loop — the
differential-testing harness in ``tests/oracles.py`` asserts this
byte-for-byte.

Interception contract: while a capture is active, every
:class:`~repro.nn.module.Parameter` gradient must arrive through a
capture-aware site (``Tensor.__matmul__``/``__add__``/``__sub__``, the
GAT/GRAT layers' fused node, :func:`repro.nn.functional.scale_rows_one_plus`).
A Parameter receiving a gradient anywhere else raises
:class:`~repro.errors.AutogradError` — failing loudly instead of silently
mixing examples.  Every parameter reduction in the model zoo is
node-rowed, so the capture needs only the *node* segment bounds: the
attention vectors' gradient is ``Sᵀ x`` over per-node score gradients
``S`` (see :class:`repro.gnn.layers.GATConv`), and a union edge's two
ends lie in its own member's node segment.
"""

from __future__ import annotations

import contextlib

import numpy as np

from repro.errors import AutogradError
from repro.nn import kernels

__all__ = ["PerExampleCapture", "active_capture", "capture_matmul", "capturing"]

#: The process-global active capture (``None`` outside the vectorized
#: path).  A module global rather than thread-local on purpose: captures
#: live only inside the single-threaded trainer loop, and each gradient
#: worker process carries its own module state.
_ACTIVE: "PerExampleCapture | None" = None


def active_capture() -> "PerExampleCapture | None":
    """The capture currently intercepting parameter gradients, if any."""
    return _ACTIVE


@contextlib.contextmanager
def capturing(capture: "PerExampleCapture"):
    """Scope ``capture`` as the active interceptor for one backward pass."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = capture
    try:
        yield capture
    finally:
        _ACTIVE = previous


def reject_uncaptured(parameter) -> None:
    """A Parameter gradient reached a non-intercepted op under capture."""
    raise AutogradError(
        "per-example capture is active but a Parameter gradient arrived "
        "through an op without segment interception; route the op through "
        "a capture-aware site (matmul, add/sub, the GAT/GRAT layer node, "
        "scale_rows_one_plus) or train with grad_mode='loop'"
    )


def capture_matmul(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``left @ right``, one segment at a time when a capture covers its rows.

    BLAS products are not row-stable in general: GEMV tail rows, any
    single-row slice, and every product with a transposed right operand
    accumulate over k in an order that depends on the total row count.
    Under per-example capture the disjoint union must replay the serial
    loop's per-subgraph products to stay bit-identical, so a product whose
    row count matches the active capture's node bounds is computed per
    segment (see :func:`kernels.segment_matmul`).
    """
    capture = _ACTIVE
    if capture is not None and left.shape[0] == int(capture.node_bounds[-1]):
        return kernels.segment_matmul(left, right, capture.node_bounds)
    return left @ right


class PerExampleCapture:
    """Per-segment parameter-gradient buffers for one batched backward.

    Every interception computes the per-segment reduction the serial loop
    would have computed for that subgraph alone — ``x[s:e].T @ g[s:e]``
    for a matmul, ``unbroadcast(g[s:e])`` for a bias — into a
    ``(B, *param.shape)`` buffer.  The first contribution per parameter
    *assigns* (mirroring autograd's adopt-on-first-accumulate, which
    preserves signed zeros); later contributions add in firing order,
    exactly like ``Tensor._accumulate``.
    """

    __slots__ = ("node_bounds", "num_examples", "_slots")

    def __init__(self, node_bounds: np.ndarray) -> None:
        self.node_bounds = np.asarray(node_bounds, dtype=np.int64)
        self.num_examples = len(self.node_bounds) - 1
        # id(param) -> (param, buffer); holding the parameter pins its id
        # against reuse for the capture's lifetime.
        self._slots: dict[int, tuple[object, np.ndarray]] = {}

    # ------------------------------------------------------------------ #
    def _buffer(self, parameter) -> tuple[np.ndarray, bool]:
        key = id(parameter)
        entry = self._slots.get(key)
        if entry is not None:
            return entry[1], False
        buffer = np.empty((self.num_examples,) + parameter.data.shape)
        self._slots[key] = (parameter, buffer)
        return buffer, True

    def _require_rows(self, rows: int, bounds: np.ndarray, what: str) -> None:
        if rows != int(bounds[-1]):
            raise AutogradError(
                f"per-example capture: {what} has {rows} rows but the "
                f"segment bounds cover {int(bounds[-1])}"
            )

    # ------------------------------------------------------------------ #
    def matmul_nodes(self, parameter, x: np.ndarray, grad: np.ndarray) -> None:
        """Capture ``x.T @ grad`` per node segment, laid out in the
        parameter's shape (Linear weights; attention vectors, whose
        ``(2, head_dim)`` product is their ``[a_s; a_t]`` in row order)."""
        self._require_rows(x.shape[0], self.node_bounds, "matmul input")
        buffer, fresh = self._buffer(parameter)
        blocks = buffer.reshape((self.num_examples, x.shape[1], grad.shape[1]))
        kernels.segment_matmul_t(
            x, grad, self.node_bounds, blocks, accumulate=not fresh
        )

    def reduce_nodes(self, parameter, grad: np.ndarray) -> None:
        """Capture a broadcast-reduced gradient per node segment.

        Biases and GIN's epsilon: each segment reduces with the same
        ``_unbroadcast`` (axis-0 sums over a contiguous row slice, which
        numpy's pairwise summation evaluates identically to a standalone
        array) the serial loop applies to the whole-subgraph gradient.
        """
        from repro.nn.tensor import _unbroadcast

        self._require_rows(grad.shape[0], self.node_bounds, "reduced gradient")
        buffer, fresh = self._buffer(parameter)
        bounds = self.node_bounds
        shape = parameter.data.shape
        for example in range(self.num_examples):
            start, stop = int(bounds[example]), int(bounds[example + 1])
            piece = _unbroadcast(grad[start:stop], shape)
            if fresh:
                buffer[example] = piece
            else:
                buffer[example] += piece

    # ------------------------------------------------------------------ #
    def gradient_matrix(self, parameters) -> np.ndarray:
        """Per-example gradients as a ``(B, P)`` matrix.

        Rows follow the segment order; columns follow ``parameters`` in
        discovery order — the exact layout of
        :meth:`repro.nn.module.Module.gradient_vector`, with zeros for any
        parameter no interception touched (the serial loop's
        ``grad is None`` case).
        """
        blocks = []
        for parameter in parameters:
            entry = self._slots.get(id(parameter))
            if entry is None:
                blocks.append(np.zeros((self.num_examples, parameter.data.size)))
            else:
                blocks.append(entry[1].reshape(self.num_examples, -1))
        if not blocks:
            return np.zeros((self.num_examples, 0))
        return np.concatenate(blocks, axis=1)
