"""Sorting shared by the graph builder and the segment kernels."""

from __future__ import annotations

import numpy as np


def stable_argsort(values: np.ndarray, bound: int) -> np.ndarray:
    """``np.argsort(values, kind="stable")`` for int64 ``values`` in ``[0, bound)``.

    Sorts by 16-bit digits, least significant first.  numpy's stable sort
    of 16-bit integers is a radix sort, so each pass is linear, and a
    stable order is unique, so the result is the same array.
    """
    order = None
    shift = 0
    while True:
        digits = ((values >> shift) & 0xFFFF).astype(np.uint16)
        if order is None:
            order = np.argsort(digits, kind="stable")
        else:
            order = order[np.argsort(digits[order], kind="stable")]
        shift += 16
        if bound <= 1 << shift:
            return order
