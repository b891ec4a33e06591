"""Property tests for the fused segment kernels.

The kernels promise *bit-identity* with the ``np.add.at`` /
``np.maximum.at`` scatter loops of the oracle (``tests/oracles.py``) — not
merely numerical closeness.  ``np.bincount`` (1-D values and one column)
accumulates sequentially in input order, exactly like ``np.add.at``; the
CSR products (rows, and the fused gather–scale–scatter) add each row's
stored entries in stable segment order, and must neither reorder the adds
nor fuse ``y += a * x`` into one FMA.  These tests pin the contract with
hypothesis over ragged segments, empty segments, duplicate targets,
non-contiguous row views, and adversarial float64 values: signed zeros,
infinities, NaN, subnormals, and magnitudes whose accumulation order is
observable.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from repro.core.compute_plan import ComputePlan
from repro.gnn.inference import EdgePass, InferenceWorkspace
from repro.gnn.message_passing import aggregate_neighbors
from repro.gnn.models import build_gnn
from repro.graphs.graph import Graph
from repro.nn import kernels
from repro.nn.kernels import (
    build_segment_sort,
    gather_scale_scatter,
    kernel_stats,
    reset_kernel_stats,
    scatter_matrix,
    segment_max,
    segment_mean,
    segment_sum,
)
from repro.nn.tensor import Tensor, no_grad
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
    @given(segment_problem(min_width=2))
    def test_precomputed_scatter_matrix_matches(self, problem):
        values, segments, num_segments = problem
        matrix = scatter_matrix(segments, num_segments)
        expected = reference_segment_sum(values, segments, num_segments)
        result = segment_sum(values, segments, num_segments, matrix=matrix)
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
        # bincount for 1-D values and one column, a CSR product for rows.
        reset_kernel_stats()
        segments = np.array([0, 1, 0], dtype=np.int64)
        segment_sum(np.ones(3), segments, 2)
        segment_sum(np.ones((3, 1)), segments, 2)
        segment_sum(np.ones((3, 2)), segments, 2)
        segment_sum(np.ones((3, 5)), segments, 2, matrix=scatter_matrix(segments, 2))
        stats = kernel_stats()
        assert stats["segment_sum.bincount"] == 2
        assert stats["segment_sum.csr"] == 2


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
        assert kernel_stats()["segment_sum.csr"] == 1
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

    def test_scatter_matrix_layout(self):
        # Rows hold their entries in edge order; columns default to the
        # edge ids, data to ones.
        segments = np.array([2, 0, 2, 2], dtype=np.int64)
        plain = scatter_matrix(segments, 4)
        assert plain.shape == (4, 4)
        np.testing.assert_array_equal(plain.indptr, [0, 1, 1, 4, 4])
        np.testing.assert_array_equal(plain.indices, [1, 0, 2, 3])
        np.testing.assert_array_equal(plain.data, [1.0, 1.0, 1.0, 1.0])
        columns = np.array([5, 1, 5, 0], dtype=np.int64)
        gathering = scatter_matrix(
            segments, 4, columns=columns, num_columns=6, data=[0.1, 0.2, 0.3, 0.4]
        )
        assert gathering.shape == (4, 6)
        np.testing.assert_array_equal(gathering.indices, [1, 5, 5, 0])
        np.testing.assert_array_equal(gathering.data, [0.2, 0.1, 0.3, 0.4])


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


with np.errstate(invalid="ignore"):
    #: The NaN the hardware makes from ``inf - inf`` or ``inf * 0``.  When
    #: two NaNs of different bits meet in an add, which one survives is
    #: the compiled loop's operand order, which neither ``np.bincount``
    #: nor ``np.add.at`` pins, so the inputs use this one NaN and every
    #: NaN in a sum has the same bits.
    DEFAULT_NAN = np.subtract(np.inf, np.inf)

#: Values whose handling a reordered or fused accumulation would change:
#: signed zeros, infinities, NaN, subnormals, and magnitudes 1e±8 and
#: beyond, where the order of adds is visible in the result.
SPECIAL_VALUES = np.array(
    [0.0, -0.0, np.inf, -np.inf, DEFAULT_NAN, 5e-324, -5e-324, 2.2250738585072014e-308,
     -1e-300, 1e-8, -1e8, 1e16, -1e16, 1.0, -1.0]
)
WIDTHS = [1, 2, 5, 32, 64]


def adversarial(rng, shape, share) -> np.ndarray:
    """Normal draws scaled by 10^[-8, 8], a ``share`` of them special."""
    values = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)
    special = rng.random(shape) < share
    values[special] = rng.choice(SPECIAL_VALUES, size=int(special.sum()))
    return values


def row_view(base: np.ndarray, layout: str) -> np.ndarray:
    """``base``'s values as a contiguous array or a non-contiguous view."""
    rows, width = base.shape
    if layout == "strided rows":
        holder = np.full((2 * rows, width), 7.0)
        holder[::2] = base
        return holder[::2]
    if layout == "column slice":
        holder = np.full((rows, width + 3), 7.0)
        holder[:, 1 : width + 1] = base
        return holder[:, 1 : width + 1]
    if layout == "fortran":
        return np.asfortranarray(base)
    return base


@st.composite
def scatter_problem(draw):
    """Rows of an adversarial width and layout, ragged target segments
    (empty, duplicated, one for all), and gather columns with repeats."""
    num_segments = draw(st.integers(1, 12))
    num_rows = draw(st.integers(0, 40))
    segments = np.asarray(
        draw(st.lists(st.integers(0, num_segments - 1), min_size=num_rows, max_size=num_rows)),
        dtype=np.int64,
    )
    num_columns = draw(st.integers(1, 10))
    columns = np.asarray(
        draw(st.lists(st.integers(0, num_columns - 1), min_size=num_rows, max_size=num_rows)),
        dtype=np.int64,
    )
    width = draw(st.sampled_from(WIDTHS))
    layout = draw(st.sampled_from(["contiguous", "strided rows", "column slice", "fortran"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    share = draw(st.sampled_from([0.0, 0.1, 0.5]))
    values = row_view(adversarial(rng, (num_rows, width), share), layout)
    x = row_view(adversarial(rng, (num_columns, width), share), layout)
    coefficients = adversarial(rng, (num_rows,), share)
    return values, segments, num_segments, x, columns, coefficients


def reference_gather_scale_scatter(x, coefficients, columns, segments, num_segments):
    """The gather, ``(E, W)`` scale and ``np.add.at`` scatter the kernel fuses."""
    with np.errstate(invalid="ignore"):
        scaled = x[columns] * coefficients[:, None]
    return reference_segment_sum(scaled, segments, num_segments)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
class TestCSRScatter:
    @settings(max_examples=300, deadline=None)
    @given(scatter_problem())
    def test_segment_sum_is_byte_equal_to_add_at(self, problem):
        values, segments, num_segments, _, _, _ = problem
        expected = reference_segment_sum(values, segments, num_segments)
        built = segment_sum(values, segments, num_segments)
        cached = segment_sum(
            values, segments, num_segments, matrix=scatter_matrix(segments, num_segments)
        )
        assert built.tobytes() == expected.tobytes()
        assert cached.tobytes() == expected.tobytes()
        assert built.shape == expected.shape

    @settings(max_examples=300, deadline=None)
    @given(scatter_problem())
    def test_gather_scale_scatter_is_byte_equal_to_add_at(self, problem):
        _, segments, num_segments, x, columns, coefficients = problem
        expected = reference_gather_scale_scatter(
            x, coefficients, columns, segments, num_segments
        )
        sort = build_segment_sort(segments)
        matrix = scatter_matrix(
            segments, num_segments, columns=columns, num_columns=x.shape[0], sort=sort
        )
        before = matrix.data.copy()
        result = gather_scale_scatter(x, coefficients, matrix, sort)
        assert result.tobytes() == expected.tobytes()
        assert result.shape == expected.shape
        # The cached matrix is never written.
        assert matrix.data.tobytes() == before.tobytes()

    def test_no_fused_multiply_add(self):
        # With one rounding per product, (1 + 2^-30)^2 rounds to 1 + 2^-29
        # and cancels the first term exactly; an FMA keeps the 2^-60.
        a = 1.0 + 2.0**-30
        x = np.array([[-(1.0 + 2.0**-29)], [a]])
        segments = np.zeros(2, dtype=np.int64)
        columns = np.array([0, 1], dtype=np.int64)
        coefficients = np.array([1.0, a])
        sort = build_segment_sort(segments)
        matrix = scatter_matrix(segments, 1, columns=columns, num_columns=2, sort=sort)
        for width in (1, 2, 5):
            wide = np.repeat(x, width, axis=1)
            result = gather_scale_scatter(wide, coefficients, matrix, sort)
            expected = reference_gather_scale_scatter(wide, coefficients, columns, segments, 1)
            assert not expected.any()
            assert result.tobytes() == expected.tobytes()

    def test_rows_add_in_edge_order(self):
        # Catastrophic cancellation: adding in edge order gives [1, 0]; a
        # pairwise or reversed order gives something else.
        values = np.array([[1e16, 0.0], [1.0, 1e16], [-1e16, 1.0], [1.0, -1e16]])
        segments = np.zeros(4, dtype=np.int64)
        expected = reference_segment_sum(values, segments, 1)
        assert segment_sum(values, segments, 1).tobytes() == expected.tobytes()
        np.testing.assert_array_equal(expected, [[1.0, 0.0]])

    def test_empty_segment_set(self):
        matrix = scatter_matrix(np.zeros(0, dtype=np.int64), 3, columns=[], num_columns=2)
        assert matrix.shape == (3, 2)
        assert not (matrix @ np.ones((2, 4))).any()


def weighted_graph(num_nodes: int, seed: int) -> Graph:
    """Repeated arcs, self-loops and isolated nodes, with weights that are
    not all 1 (exact 0.0 and 1.0 among them)."""
    rng = np.random.default_rng(seed)
    edges = [tuple(pair) for pair in rng.integers(0, num_nodes - 2, size=(4 * num_nodes, 2))]
    weights = rng.choice([0.0, 1.0, 0.3, 0.7, 1e-8, 5e-324], size=len(edges))
    return Graph(num_nodes, edges, weights, directed=True)


class TestAggregation:
    @pytest.mark.parametrize("kind", ["gcn", "sage", "gin"])
    @pytest.mark.parametrize("width", [1, 2, 5, 32])
    def test_infer_is_byte_equal_to_the_planned_and_plain_forward(self, kind, width):
        graph = weighted_graph(14, seed=width)
        plan = ComputePlan(graph)
        model = build_gnn(kind, in_features=width, hidden_features=8, num_layers=2, rng=3)
        rng = np.random.default_rng(width)
        features = adversarial(rng, (graph.num_nodes, width), 0.1)
        features[~np.isfinite(features)] = -0.0
        edge_index, edge_weight = plan.edge_index, plan.edge_weight
        for conv in model.convs:
            with no_grad():
                planned = conv(Tensor(features), edge_index, edge_weight, plan=plan).data
                plain = conv(Tensor(features), edge_index, edge_weight).data
            inferred = conv.infer(features, edge_index, edge_weight)
            assert planned.tobytes() == plain.tobytes() == inferred.tobytes()
            features = planned * (planned > 0)

    @pytest.mark.parametrize("width", [1, 2, 5, 32])
    def test_planned_aggregate_and_gradient_match_add_at(self, width, add_at_kernels):
        graph = weighted_graph(12, seed=100 + width)
        rng = np.random.default_rng(width)
        features = adversarial(rng, (graph.num_nodes, width), 0.1)
        features[~np.isfinite(features)] = 0.0
        upstream = adversarial(rng, (graph.num_nodes, width), 0.1)
        upstream[~np.isfinite(upstream)] = -0.0

        def run(plan):
            x = Tensor(features.copy(), requires_grad=True)
            out = aggregate_neighbors(
                x, graph.edge_index(), graph.num_nodes,
                edge_weight=graph.edge_arrays()[2], plan=plan,
            )
            out.backward(upstream)
            return out.data.tobytes(), x.grad.tobytes()

        planned = run(ComputePlan(graph))
        with add_at_kernels():
            assert planned == run(None)


def held_arrays(value):
    """Every numpy array reachable from a memo value."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, sparse.csr_array):
        yield from (value.data, value.indices, value.indptr)
    elif isinstance(value, (tuple, list)):
        for element in value:
            yield from held_arrays(element)


class TestIndexSize:
    @pytest.mark.parametrize(
        "kind, heads", [("grat", 1), ("gat", 2), ("gcn", 1), ("sage", 1), ("gin", 1)]
    )
    def test_no_memo_holds_an_edge_by_width_array(self, kind, heads):
        width = 12
        graph = weighted_graph(30, seed=1)
        num_edges = graph.num_edges
        model = build_gnn(kind, hidden_features=width, num_layers=3, attention_heads=heads, rng=4)
        plan = ComputePlan(graph)
        scores = model(Tensor(plan.features(5)), plan.edge_index, plan.edge_weight, plan=plan)
        scores.sum().backward()
        edges = EdgePass(graph.edge_index(), graph.edge_arrays()[2], graph.num_nodes,
                         InferenceWorkspace())
        hidden = plan.features(5)
        for conv in model.convs:
            hidden = conv._infer(hidden, edges)
        for memo in (plan._memo, edges._memo):
            sizes = [array.size for value in memo.values() for array in held_arrays(value)]
            assert sizes and max(sizes) < num_edges * width
