"""The exact draw stream (:func:`repro.utils.rng.draw_stream`) against numpy.

Every draw must equal the scalar ``Generator`` call it stands for, and the
generator must end in the state those calls would have left it in,
whatever the interleaving of ``random()`` and ``integers(0, k)``, however
the chunks fall, and whether or not the state held a buffered 32-bit half
on entry.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.utils.rng import DrawStream, draw_stream, serialize_rng_state

BIT_GENERATORS = ["PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937"]
EDGE_BOUNDS = [1, 2, 3, 2**31, 2**32 - 1, 2**32]

#: One op per draw: 0 is ``random()``, k >= 1 is ``integers(0, k)``.
ops_lists = st.lists(
    st.one_of(
        st.just(0),
        st.sampled_from(EDGE_BOUNDS),
        st.integers(1, 2**32),
        st.integers(1, 1000),
    ),
    max_size=60,
)


def twin_generators(name: str, seed: int, buffered: bool):
    """Two generators in the same state, optionally holding a uint32 half."""
    make = getattr(np.random, name)
    first, second = np.random.Generator(make(seed)), np.random.Generator(make(seed))
    if buffered:
        first.integers(0, 5, dtype=np.uint32)
        second.integers(0, 5, dtype=np.uint32)
        if name != "MT19937":
            assert first.bit_generator.state["has_uint32"] == 1
    return first, second


def scalar_draws(generator: np.random.Generator, ops) -> list:
    return [generator.random() if k == 0 else int(generator.integers(0, k)) for k in ops]


def stream_draws(draws, ops) -> list:
    return [draws.random() if k == 0 else draws.integers(k) for k in ops]


def assert_same_continuation(candidate, oracle):
    assert serialize_rng_state(candidate) == serialize_rng_state(oracle)
    # A scalar uint32 draw first reads the buffered half, if any.
    assert int(candidate.integers(0, 7)) == int(oracle.integers(0, 7))
    assert candidate.random(3).tolist() == oracle.random(3).tolist()
    assert candidate.integers(0, 2**40, size=3).tolist() == oracle.integers(
        0, 2**40, size=3
    ).tolist()


class TestDrawStream:
    @settings(max_examples=150, deadline=None)
    @given(
        name=st.sampled_from(BIT_GENERATORS),
        seed=st.integers(0, 2**32),
        buffered=st.booleans(),
        chunk=st.sampled_from([1, 2, 5, DrawStream.CHUNK]),
        ops=ops_lists,
    )
    def test_matches_numpy_draw_for_draw(self, name, seed, buffered, chunk, ops):
        candidate, oracle = twin_generators(name, seed, buffered)
        with mock.patch.object(DrawStream, "CHUNK", chunk):
            with draw_stream(candidate) as draws:
                got = stream_draws(draws, ops)
        assert got == scalar_draws(oracle, ops)
        assert_same_continuation(candidate, oracle)

    @pytest.mark.parametrize("name", BIT_GENERATORS)
    def test_long_run_across_many_chunks(self, name):
        pick = np.random.default_rng(3)
        count = 3 * DrawStream.CHUNK + 17
        kinds, bounds = pick.random(count), pick.integers(1, 2**32, count)
        ops = [0 if u < 0.4 else int(k) for u, k in zip(kinds, bounds)]
        candidate, oracle = twin_generators(name, 11, True)
        with draw_stream(candidate) as draws:
            got = stream_draws(draws, ops)
        assert got == scalar_draws(oracle, ops)
        assert_same_continuation(candidate, oracle)

    @settings(max_examples=40, deadline=None)
    @given(
        name=st.sampled_from(BIT_GENERATORS),
        seed=st.integers(0, 2**32),
        buffered=st.booleans(),
        ops=ops_lists,
    )
    def test_exit_by_exception_leaves_the_scalar_state(self, name, seed, buffered, ops):
        candidate, oracle = twin_generators(name, seed, buffered)
        with mock.patch.object(DrawStream, "CHUNK", 4):
            with pytest.raises(KeyError):
                with draw_stream(candidate) as draws:
                    stream_draws(draws, ops)
                    raise KeyError("stop")
        scalar_draws(oracle, ops)
        assert_same_continuation(candidate, oracle)

    @pytest.mark.parametrize("name", BIT_GENERATORS)
    def test_an_unused_stream_leaves_the_generator_alone(self, name):
        candidate, oracle = twin_generators(name, 5, True)
        with draw_stream(candidate):
            pass
        assert_same_continuation(candidate, oracle)

    def test_mt19937_uses_the_generators_own_methods(self):
        generator = np.random.Generator(np.random.MT19937(0))
        with draw_stream(generator) as draws:
            assert not isinstance(draws, DrawStream)

    @pytest.mark.parametrize("k", [0, -1, 2**32 + 1])
    def test_bounds_outside_one_to_two_pow_32_are_refused(self, k):
        with draw_stream(np.random.default_rng(0)) as draws:
            with pytest.raises(ValueError):
                draws.integers(k)

    def test_a_closed_stream_refuses_to_draw(self):
        generator = np.random.default_rng(0)
        with draw_stream(generator) as draws:
            draws.integers(10)  # leaves a buffered half
        for draw in (draws.random, lambda: draws.integers(10)):
            with pytest.raises(RuntimeError):
                draw()
