"""Reverse-mode automatic differentiation on numpy arrays.

A :class:`Tensor` wraps a ``float64`` numpy array, remembers the operation
that produced it, and can propagate gradients back to every upstream tensor
with :meth:`Tensor.backward`.  The design mirrors the classic define-by-run
tape: each operation returns a new tensor holding a closure that knows how
to push its output gradient to its parents.

Only the operations the GNN/IM stack needs are implemented, but each is
fully general (broadcasting-aware where applicable) and individually tested
against numerical finite differences.
"""

from __future__ import annotations

import contextlib
import itertools
import operator
import threading
from typing import Callable, Iterable

import numpy as np

from repro.errors import AutogradError, ShapeError
from repro.nn import kernels, per_example


class _GradMode(threading.local):
    """Per-thread autograd switch: ``no_grad`` in one thread never disables
    graph construction in another."""

    enabled = True


_GRAD_MODE = _GradMode()

_FLOAT64 = np.dtype(np.float64)
_INT64 = np.dtype(np.int64)

#: Monotone creation stamp: every parent tensor is created strictly before
#: its children, so descending stamp order is a reverse topological order of
#: any autograd graph — backward() sorts by it instead of running an
#: interpreted postorder walk.
_CREATION_COUNTER = itertools.count()

_BY_STAMP = operator.attrgetter("_stamp")

_SCALAR_ONE = np.ones(())


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph construction in this thread."""
    previous = _GRAD_MODE.enabled
    _GRAD_MODE.enabled = False
    try:
        yield
    finally:
        _GRAD_MODE.enabled = previous


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` after numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum away leading dimensions numpy added.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over dimensions that were broadcast from size 1.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """A differentiable numpy array node in the autograd graph."""

    #: Class flag identifying trainable model state; overridden to True by
    #: :class:`repro.nn.module.Parameter`.  The per-example capture keys its
    #: gradient interception on it, and the accumulate guard uses it to
    #: reject parameter gradients that bypass interception while a capture
    #: is active.
    _is_parameter = False

    __slots__ = (
        "data",
        "grad",
        "requires_grad",
        "_parents",
        "_backward_fn",
        "_stamp",
        "name",
    )

    def __init__(
        self,
        data,
        *,
        requires_grad: bool = False,
        _parents: tuple["Tensor", ...] = (),
        _backward_fn: Callable[[np.ndarray], None] | None = None,
        name: str | None = None,
    ) -> None:
        # Fast path for the overwhelmingly common case (autograd outputs
        # are already float64 arrays); asarray showed up in gradient
        # profiles at tens of thousands of calls per batch.
        if type(data) is np.ndarray and data.dtype == _FLOAT64:
            self.data = data
        else:
            self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._backward_fn = _backward_fn
        self._stamp = next(_CREATION_COUNTER)
        self.name = name

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        """The value of a single-element tensor as a Python float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else self._item_error()

    def _item_error(self) -> float:
        raise AutogradError(f"item() requires a single-element tensor, got shape {self.shape}")

    def numpy(self) -> np.ndarray:
        """The underlying array (a copy, safe to mutate)."""
        return self.data.copy()

    def detach(self) -> "Tensor":
        """A new tensor sharing data but cut from the autograd graph."""
        return Tensor(self.data, requires_grad=False)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------ #
    # Graph machinery
    # ------------------------------------------------------------------ #
    @staticmethod
    def _lift(value) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    def _make(
        self,
        data: np.ndarray,
        parents: tuple["Tensor", ...],
        backward_fn: Callable[[np.ndarray], None],
    ) -> "Tensor":
        if _GRAD_MODE.enabled:
            for parent in parents:
                if parent.requires_grad:
                    return Tensor(
                        data,
                        requires_grad=True,
                        _parents=parents,
                        _backward_fn=backward_fn,
                    )
        return Tensor(data)

    def _accumulate(self, grad: np.ndarray) -> None:
        if self._is_parameter and per_example._ACTIVE is not None:
            per_example.reject_uncaptured(self)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    def _accumulate_owned(self, grad: np.ndarray) -> None:
        # For backward functions whose gradient is a freshly allocated array
        # (matmul products, elementwise products, fancy-index results): the
        # defensive copy of _accumulate is unnecessary, the array can be
        # adopted directly.
        if self._is_parameter and per_example._ACTIVE is not None:
            per_example.reject_uncaptured(self)
        if self.grad is None:
            self.grad = grad
        else:
            self.grad += grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        Args:
            grad: upstream gradient; defaults to 1 for scalar outputs.
        """
        if not self.requires_grad:
            raise AutogradError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise AutogradError(
                    "backward() without an explicit gradient requires a scalar output"
                )
            # _accumulate copies the seed, so a shared constant is safe.
            grad = _SCALAR_ONE if self.data.shape == () else np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=np.float64)
            if grad.shape != self.data.shape:
                raise ShapeError(
                    f"gradient shape {grad.shape} does not match tensor shape {self.data.shape}"
                )

        # Collect the reachable subgraph with a plain DFS, then order it by
        # descending creation stamp — parents are always created before
        # children, so that is a reverse topological order.  Sorting in C
        # replaces the interpreted postorder bookkeeping that dominated
        # per-example gradient profiles.
        ordered: list[Tensor] = [self]
        visited: set[int] = {id(self)}
        stack: list[Tensor] = [self]
        visited_add = visited.add
        stack_append = stack.append
        ordered_append = ordered.append
        while stack:
            node = stack.pop()
            for parent in node._parents:
                if parent.requires_grad:
                    key = id(parent)
                    if key not in visited:
                        visited_add(key)
                        ordered_append(parent)
                        stack_append(parent)

        ordered.sort(key=_BY_STAMP, reverse=True)
        self._accumulate(grad)
        for node in ordered:
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    # ------------------------------------------------------------------ #
    # Elementwise arithmetic (broadcasting-aware)
    # ------------------------------------------------------------------ #
    def __add__(self, other) -> "Tensor":
        other = self._lift(other)
        out_data = self.data + other.data

        def backward_fn(grad: np.ndarray) -> None:
            # Under an active per-example capture, a Parameter operand's
            # broadcast reduction is computed per node segment instead of
            # over the whole (batched) gradient — bit-identical per
            # segment, since _unbroadcast over a contiguous row slice
            # performs the serial loop's exact reduction.
            capture = per_example._ACTIVE
            if self.requires_grad:
                if capture is not None and self._is_parameter:
                    capture.reduce_nodes(self, grad)
                else:
                    self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                if capture is not None and other._is_parameter:
                    capture.reduce_nodes(other, grad)
                else:
                    other._accumulate(_unbroadcast(grad, other.shape))

        return self._make(out_data, (self, other), backward_fn)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward_fn(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_owned(-grad)

        return self._make(-self.data, (self,), backward_fn)

    def __sub__(self, other) -> "Tensor":
        # Direct difference node: IEEE-754 defines ``a - b`` as ``a + (-b)``
        # and negating a sum equals summing negations, so this is
        # bit-identical to composing __add__ with __neg__ — minus one graph
        # node per subtraction.
        other = self._lift(other)
        out_data = self.data - other.data

        def backward_fn(grad: np.ndarray) -> None:
            capture = per_example._ACTIVE
            if self.requires_grad:
                if capture is not None and self._is_parameter:
                    capture.reduce_nodes(self, grad)
                else:
                    self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                if capture is not None and other._is_parameter:
                    capture.reduce_nodes(other, -grad)
                else:
                    other._accumulate_owned(_unbroadcast(-grad, other.shape))

        return self._make(out_data, (self, other), backward_fn)

    def __rsub__(self, other) -> "Tensor":
        return self._lift(other) - self

    def __mul__(self, other) -> "Tensor":
        other = self._lift(other)
        out_data = self.data * other.data

        def backward_fn(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_owned(_unbroadcast(grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate_owned(_unbroadcast(grad * self.data, other.shape))

        return self._make(out_data, (self, other), backward_fn)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._lift(other)
        out_data = self.data / other.data

        def backward_fn(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_owned(_unbroadcast(grad / other.data, self.shape))
            if other.requires_grad:
                other._accumulate_owned(
                    _unbroadcast(-grad * self.data / (other.data**2), other.shape)
                )

        return self._make(out_data, (self, other), backward_fn)

    def __rtruediv__(self, other) -> "Tensor":
        return self._lift(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise AutogradError("only scalar exponents are supported")
        out_data = self.data**exponent

        def backward_fn(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_owned(grad * exponent * self.data ** (exponent - 1))

        return self._make(out_data, (self,), backward_fn)

    # ------------------------------------------------------------------ #
    # Linear algebra
    # ------------------------------------------------------------------ #
    def __matmul__(self, other) -> "Tensor":
        other = self._lift(other)
        if self.ndim != 2 or other.ndim != 2:
            raise ShapeError(
                f"matmul requires 2-D operands, got {self.shape} @ {other.shape}"
            )
        # Under per-example capture every node-rowed product — forward and
        # the left-operand backward — replays the serial loop's per-subgraph
        # BLAS calls (see per_example.capture_matmul).
        out_data = per_example.capture_matmul(self.data, other.data)

        def backward_fn(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_owned(per_example.capture_matmul(grad, other.data.T))
            if other.requires_grad:
                # Right-operand parameters (``x @ W``, every Linear) are
                # node-rowed throughout the model zoo; the attention layers
                # capture their attention vectors themselves.  A
                # left-operand Parameter under capture falls through to the
                # accumulate guard.
                capture = per_example._ACTIVE
                if capture is not None and other._is_parameter:
                    capture.matmul_nodes(other, self.data, grad)
                else:
                    other._accumulate_owned(self.data.T @ grad)

        return self._make(out_data, (self, other), backward_fn)

    @property
    def T(self) -> "Tensor":
        def backward_fn(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.T)

        return self._make(self.data.T, (self,), backward_fn)

    def reshape(self, *shape: int) -> "Tensor":
        original = self.shape
        out_data = self.data.reshape(*shape)

        def backward_fn(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(original))

        return self._make(out_data, (self,), backward_fn)

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward_fn(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            expanded = grad
            if axis is not None and not keepdims:
                expanded = np.expand_dims(grad, axis)
            self._accumulate_owned(np.broadcast_to(expanded, self.shape).copy())

        return self._make(out_data, (self,), backward_fn)

    def mean(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        count = self.size if axis is None else self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        """Maximum reduction; gradient flows to the (first) argmax entries."""
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward_fn(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            expanded = grad
            reference = out_data
            if axis is not None and not keepdims:
                expanded = np.expand_dims(grad, axis)
                reference = np.expand_dims(out_data, axis)
            mask = (self.data == reference).astype(np.float64)
            # Split gradient across ties so the sum of subgradients is 1.
            tie_counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            self._accumulate_owned(np.broadcast_to(expanded, self.shape) * mask / tie_counts)

        return self._make(out_data, (self,), backward_fn)

    def min(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        """Minimum reduction (via ``-max(-x)``)."""
        return -((-self).max(axis=axis, keepdims=keepdims))

    # ------------------------------------------------------------------ #
    # Elementwise nonlinearities
    # ------------------------------------------------------------------ #
    def abs(self) -> "Tensor":
        """Elementwise absolute value (subgradient 0 at exactly 0)."""
        sign = np.sign(self.data)

        def backward_fn(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_owned(grad * sign)

        return self._make(np.abs(self.data), (self,), backward_fn)

    def sqrt(self) -> "Tensor":
        """Elementwise square root (requires non-negative values)."""
        if np.any(self.data < 0):
            raise AutogradError("sqrt requires non-negative values")
        out_data = np.sqrt(self.data)

        def backward_fn(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_owned(grad * 0.5 / np.maximum(out_data, 1e-300))

        return self._make(out_data, (self,), backward_fn)

    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward_fn(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_owned(grad * out_data)

        return self._make(out_data, (self,), backward_fn)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward_fn(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_owned(grad / self.data)

        return self._make(out_data, (self,), backward_fn)

    def relu(self) -> "Tensor":
        out_data, mask = kernels.relu(self.data)

        def backward_fn(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_owned(grad * mask)

        return self._make(out_data, (self,), backward_fn)

    def leaky_relu(self, negative_slope: float = 0.2) -> "Tensor":
        out_data, scale = kernels.leaky_relu(self.data, negative_slope)

        def backward_fn(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_owned(grad * scale)

        return self._make(out_data, (self,), backward_fn)

    def sigmoid(self) -> "Tensor":
        out_data = kernels.sigmoid(self.data)

        def backward_fn(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_owned(grad * out_data * (1.0 - out_data))

        return self._make(out_data, (self,), backward_fn)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward_fn(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_owned(grad * (1.0 - out_data**2))

        return self._make(out_data, (self,), backward_fn)

    def clamp(self, low: float | None = None, high: float | None = None) -> "Tensor":
        """Clip values to ``[low, high]``; gradient is 1 strictly inside."""
        out_data = np.clip(self.data, low, high)
        inside = np.ones_like(self.data, dtype=bool)
        if low is not None:
            inside &= self.data > low
        if high is not None:
            inside &= self.data < high

        def backward_fn(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_owned(grad * inside)

        return self._make(out_data, (self,), backward_fn)

    # ------------------------------------------------------------------ #
    # Indexing
    # ------------------------------------------------------------------ #
    def gather_rows(self, indices: np.ndarray, *, matrix=None) -> "Tensor":
        """Select rows ``self[indices]`` (indices may repeat).

        Gradient scatters back so repeated rows accumulate — the exact
        adjoint message-passing needs.  The scatter runs through the fused
        segment-sum kernel (bit-identical to ``np.add.at``).

        Args:
            indices: row indices, repeats allowed.
            matrix: optional precomputed
                :func:`repro.nn.kernels.scatter_matrix` of ``indices`` —
                the backward scatter then skips building it (compute plans
                cache one per edge direction).
        """
        idx = (
            indices
            if type(indices) is np.ndarray and indices.dtype == _INT64
            else np.asarray(indices, dtype=np.int64)
        )
        out_data = self.data[idx]

        def backward_fn(grad: np.ndarray) -> None:
            if self.requires_grad:
                full = kernels.segment_sum(
                    grad, idx, self.data.shape[0], matrix=matrix
                )
                self._accumulate_owned(full)

        return self._make(out_data, (self,), backward_fn)


def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient splitting."""
    tensor_list = [Tensor._lift(t) for t in tensors]
    if not tensor_list:
        raise AutogradError("concat requires at least one tensor")
    out_data = np.concatenate([t.data for t in tensor_list], axis=axis)
    offsets = [0]
    for t in tensor_list:
        offsets.append(offsets[-1] + t.data.shape[axis])

    def backward_fn(grad: np.ndarray) -> None:
        for tensor, start, stop in zip(tensor_list, offsets[:-1], offsets[1:]):
            if tensor.requires_grad:
                slicer = [slice(None)] * grad.ndim
                slicer[axis] = slice(start, stop)
                tensor._accumulate(grad[tuple(slicer)])

    requires = _GRAD_MODE.enabled and any(t.requires_grad for t in tensor_list)
    if not requires:
        return Tensor(out_data)
    return Tensor(
        out_data, requires_grad=True, _parents=tuple(tensor_list), _backward_fn=backward_fn
    )
