"""Property tests for the fused segment kernels.

The kernels promise *bit-identity* with the ``np.add.at`` /
``np.maximum.at`` scatter loops of the oracle (``tests/oracles.py``) — not merely numerical closeness.  That
holds because ``np.bincount`` accumulates sequentially in input order,
exactly like ``np.add.at``; these tests pin the contract with hypothesis
over ragged segments, empty segments, duplicate targets, and adversarial
float64 values whose accumulation order matters.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nn import kernels
from repro.nn.kernels import (
    COLUMN_WIDTH_THRESHOLD,
    build_segment_sort,
    flat_scatter_index,
    kernel_stats,
    reset_kernel_stats,
    segment_max,
    segment_mean,
    segment_sum,
)
from tests.oracles import reference_segment_max, reference_segment_sum


@st.composite
def segment_problem(draw, min_width=0, max_width=12):
    """A ragged scatter problem: values, target segments, segment count.

    Deliberately allows empty inputs, segments no value maps to, every
    value mapping to one segment, and repeated float values with large
    magnitude spread (so accumulation order is observable in float64).
    """
    num_segments = draw(st.integers(min_value=1, max_value=12))
    num_values = draw(st.integers(min_value=0, max_value=40))
    width = draw(st.integers(min_value=min_width, max_value=max_width))
    segments = draw(
        st.lists(
            st.integers(min_value=0, max_value=num_segments - 1),
            min_size=num_values,
            max_size=num_values,
        )
    )
    element = st.floats(
        min_value=-1e12, max_value=1e12, allow_nan=False, width=64
    )
    shape = (num_values,) if width == 0 else (num_values, width)
    flat = draw(
        st.lists(
            element,
            min_size=int(np.prod(shape)),
            max_size=int(np.prod(shape)),
        )
    )
    values = np.asarray(flat, dtype=np.float64).reshape(shape)
    return values, np.asarray(segments, dtype=np.int64), num_segments


class TestSegmentSum:
    @settings(max_examples=200, deadline=None)
    @given(segment_problem())
    def test_bit_identical_to_add_at(self, problem):
        values, segments, num_segments = problem
        expected = reference_segment_sum(values, segments, num_segments)
        result = segment_sum(values, segments, num_segments)
        assert result.tobytes() == expected.tobytes()
        assert result.shape == expected.shape

    @settings(max_examples=100, deadline=None)
    @given(segment_problem(min_width=COLUMN_WIDTH_THRESHOLD + 1))
    def test_precomputed_flat_index_matches(self, problem):
        values, segments, num_segments = problem
        flat = flat_scatter_index(segments, values.shape[1])
        expected = segment_sum(values, segments, num_segments)
        result = segment_sum(
            values, segments, num_segments, flat_index=flat
        )
        assert result.tobytes() == expected.tobytes()

    def test_duplicate_targets_accumulate_in_input_order(self):
        # Catastrophic-cancellation probe: result depends on the order
        # the addends are folded in, so it detects pairwise summation.
        values = np.array([1e16, 1.0, -1e16, 1.0])
        segments = np.zeros(4, dtype=np.int64)
        expected = reference_segment_sum(values, segments, 1)
        assert segment_sum(values, segments, 1).tobytes() == expected.tobytes()

    def test_empty_values(self):
        out = segment_sum(np.zeros((0, 7)), np.zeros(0, dtype=np.int64), 3)
        assert out.shape == (3, 7)
        assert not out.any()

    def test_dispatch_by_width(self):
        reset_kernel_stats()
        segments = np.array([0, 1, 0], dtype=np.int64)
        segment_sum(np.ones(3), segments, 2)
        segment_sum(np.ones((3, COLUMN_WIDTH_THRESHOLD)), segments, 2)
        segment_sum(np.ones((3, COLUMN_WIDTH_THRESHOLD + 1)), segments, 2)
        stats = kernel_stats()
        assert stats["segment_sum.vec"] == 1
        assert stats["segment_sum.col"] == 1
        assert stats["segment_sum.flat"] == 1


class TestSegmentMeanMax:
    @settings(max_examples=150, deadline=None)
    @given(segment_problem())
    def test_mean_matches_sum_over_counts(self, problem):
        values, segments, num_segments = problem
        counts = np.bincount(segments, minlength=num_segments)
        sums = reference_segment_sum(values, segments, num_segments)
        safe = np.maximum(counts, 1)
        expected = sums / (safe.reshape(-1, *([1] * (values.ndim - 1))))
        result = segment_mean(values, segments, num_segments)
        assert result.tobytes() == expected.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(segment_problem(max_width=0))
    def test_max_matches_maximum_at(self, problem):
        values, segments, num_segments = problem
        expected = reference_segment_max(values, segments, num_segments)
        result = segment_max(values, segments, num_segments)
        assert result.tobytes() == expected.tobytes()

    @settings(max_examples=75, deadline=None)
    @given(segment_problem(max_width=0))
    def test_max_with_prebuilt_sort(self, problem):
        values, segments, num_segments = problem
        sort = build_segment_sort(segments)
        expected = reference_segment_max(values, segments, num_segments)
        result = segment_max(values, segments, num_segments, sort=sort)
        assert result.tobytes() == expected.tobytes()

    def test_empty_segment_keeps_fill(self):
        out = segment_max(np.array([2.0]), np.array([1]), 3, fill=-np.inf)
        assert out[1] == 2.0
        assert np.isneginf(out[0]) and np.isneginf(out[2])


class TestToggleAndStats:
    def test_functional_layer_respects_toggle(self, add_at_kernels):
        from repro.nn import functional as F
        from repro.nn.tensor import Tensor

        source = Tensor(np.arange(12, dtype=np.float64).reshape(4, 3))
        idx = np.array([0, 2, 0, 1], dtype=np.int64)
        reset_kernel_stats()
        fast = F.scatter_add_rows(source, idx, 3)
        assert kernel_stats()["segment_sum.col"] == 1
        with add_at_kernels():
            reset_kernel_stats()
            reference = F.scatter_add_rows(source, idx, 3)
            # The oracle ran instead of the kernel.
            assert kernel_stats() == {}
        assert fast.data.tobytes() == reference.data.tobytes()

    def test_build_segment_sort_runs(self):
        segments = np.array([3, 1, 3, 0, 1, 3], dtype=np.int64)
        sort = build_segment_sort(segments)
        np.testing.assert_array_equal(sort.unique, [0, 1, 3])
        # starts index into the sorted order; run lengths must partition it.
        lengths = np.diff(np.r_[sort.starts, len(segments)])
        np.testing.assert_array_equal(lengths, [1, 2, 3])

    def test_edge_set_memo_builds_once(self):
        memo = kernels.EdgeSetMemo(np.array([[0, 2, 1], [1, 1, 0]], dtype=np.int64))
        calls = []
        assert memo.memo("key", lambda: calls.append(1) or 7) == 7
        assert memo.memo("key", lambda: calls.append(1) or 8) == 7
        assert calls == [1]
        sort = memo.segment_sort("source")
        assert memo.segment_sort("source") is sort
        np.testing.assert_array_equal(sort.unique, [0, 1, 2])
        np.testing.assert_array_equal(memo.segment_sort("target").unique, [0, 1])

    def test_flat_scatter_index_layout(self):
        segments = np.array([2, 0], dtype=np.int64)
        flat = flat_scatter_index(segments, 3)
        np.testing.assert_array_equal(flat, [6, 7, 8, 0, 1, 2])


class TestGatherRowsBackward:
    def test_gradient_matches_legacy_path(self, add_at_kernels):
        from repro.nn.tensor import Tensor

        rng = np.random.default_rng(0)
        base = rng.normal(size=(5, 6))
        idx = np.array([0, 4, 0, 2, 4, 4], dtype=np.int64)

        def run():
            tensor = Tensor(base.copy(), requires_grad=True)
            gathered = tensor.gather_rows(idx)
            (gathered * gathered).sum().backward()
            return tensor.grad

        fast = run()
        with add_at_kernels():
            reference = run()
        assert fast.tobytes() == reference.tobytes()
