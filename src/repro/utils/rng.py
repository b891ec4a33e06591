"""Seeded random-number-generator helpers.

Everything stochastic in this library (graph generation, random walks,
DP noise, Monte-Carlo diffusion, weight initialisation) accepts either a
``numpy.random.Generator`` or an integer seed.  :func:`ensure_rng` normalises
both to a ``Generator`` so results are reproducible end to end.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

import numpy as np


def ensure_rng(rng: int | np.random.Generator | None = None) -> np.random.Generator:
    """Return a ``numpy.random.Generator`` for ``rng``.

    Args:
        rng: ``None`` (fresh nondeterministic generator), an integer seed,
            or an existing generator (returned unchanged).

    Returns:
        A ``numpy.random.Generator``.
    """
    if rng is None:
        return np.random.default_rng()
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(int(rng))
    raise TypeError(f"rng must be None, int, or numpy Generator, got {type(rng)!r}")


def spawn_rngs(rng: int | np.random.Generator | None, count: int) -> list[np.random.Generator]:
    """Derive ``count`` independent child generators from ``rng``.

    Useful when a pipeline has several stochastic stages (sampling, noise,
    evaluation) that must not share a stream, e.g. so changing the number of
    training iterations does not perturb the evaluation randomness.
    """
    parent = ensure_rng(rng)
    seeds = parent.integers(0, 2**63 - 1, size=count)
    return [np.random.default_rng(int(seed)) for seed in seeds]


def derive_root_entropy(rng: int | np.random.Generator | None = None) -> int:
    """Draw a 63-bit root entropy value for a per-item seed stream.

    The parallel sampling engine needs one independent generator per start
    node whose stream does not depend on scheduling order.  Consuming a
    single integer from the master generator and deriving children with
    :func:`child_generator` gives exactly that: the master stream advances
    by one draw regardless of how many children are spawned, and every
    child is a pure function of ``(root_entropy, key)``.
    """
    return int(ensure_rng(rng).integers(0, 2**63 - 1))


def child_generator(root_entropy: int, *key: int) -> np.random.Generator:
    """Deterministic child generator for ``key`` under ``root_entropy``.

    Built on ``numpy.random.SeedSequence`` spawn keys, so children for
    distinct keys are statistically independent and identical across
    processes — the property the serial-vs-parallel equivalence guarantee
    rests on.
    """
    sequence = np.random.SeedSequence(
        entropy=int(root_entropy), spawn_key=tuple(int(k) for k in key)
    )
    return np.random.default_rng(sequence)


#: Bit generators whose ``Generator.random()`` is ``(raw >> 11) * 2**-53``
#: of one 64-bit raw draw and whose 32-bit draws split a raw draw into its
#: low half, returned, and its high half, buffered in the state's
#: ``has_uint32``/``uinteger``.  Any other bit generator (MT19937 makes
#: native 32-bit draws) gets the generator's own scalar methods.
_SPLIT_RAW_BIT_GENERATORS = frozenset({"PCG64", "PCG64DXSM", "Philox", "SFC64"})

_TWO_POW_32 = 1 << 32
_HALF_MASK = _TWO_POW_32 - 1
_TWO_POW_MINUS_53 = 1.0 / (1 << 53)


class DrawStream:
    """Scalar draws of a ``Generator``, pulled from its bit generator in bulk.

    :meth:`random` and :meth:`integers` return exactly what
    ``generator.random()`` and ``int(generator.integers(0, k))`` would
    return, call for call, but read Python ints from one
    ``bit_generator.random_raw`` chunk instead of crossing into numpy per
    draw.  Open it with :func:`draw_stream`, which puts the generator where
    the scalar calls would have left it when the block ends.
    """

    #: Raw 64-bit draws fetched per refill.
    CHUNK = 8192

    def __init__(self, bit_generator: np.random.BitGenerator) -> None:
        self._bit_generator = bit_generator
        state = bit_generator.state
        self._has_half = bool(state["has_uint32"])
        self._half = int(state["uinteger"])
        # The state before the current chunk and the chunk's length, so
        # close() can redraw exactly the raws this stream consumed.
        self._chunk_state = state
        self._chunk_len = 0
        self._raws: Iterator[int] = iter(())
        self._closed = False

    def _refill(self) -> int:
        """Fetch the next chunk and return its first raw draw."""
        if self._closed:
            raise RuntimeError("draw stream is closed")
        self._chunk_state = self._bit_generator.state
        chunk = self._bit_generator.random_raw(self.CHUNK).tolist()
        self._chunk_len = len(chunk)
        self._raws = iter(chunk)
        return next(self._raws)

    def random(self) -> float:
        """One uniform float in ``[0, 1)``, as ``Generator.random()``."""
        raw = next(self._raws, None)
        if raw is None:
            raw = self._refill()
        return (raw >> 11) * _TWO_POW_MINUS_53

    def _uint32(self) -> int:
        """The bit generator's ``next_uint32``: a buffered high half first."""
        if self._has_half:
            self._has_half = False
            return self._half
        raw = next(self._raws, None)
        if raw is None:
            raw = self._refill()
        self._has_half = True
        self._half = raw >> 32
        return raw & _HALF_MASK

    def integers(self, k: int) -> int:
        """One integer in ``[0, k)``, as ``int(Generator.integers(0, k))``.

        ``k`` is a Python int with ``1 <= k <= 2**32``.  This is numpy's
        Lemire rejection over 32-bit draws: ``k == 1`` draws nothing, and
        ``k == 2**32`` returns a raw half (its rejection threshold is 0).
        """
        if k == 1:
            return 0
        if not 1 < k <= _TWO_POW_32:
            raise ValueError(f"k must be in [1, 2**32], got {k}")
        product = self._uint32() * k
        leftover = product & _HALF_MASK
        if leftover < k:
            threshold = (_TWO_POW_32 - k) % k
            while leftover < threshold:
                product = self._uint32() * k
                leftover = product & _HALF_MASK
        return product >> 32

    def close(self) -> None:
        """Leave the bit generator where the scalar draws would have.

        Restores the state snapshotted before the current chunk, redraws
        the raws consumed from it, and sets the 32-bit buffer.
        """
        if self._closed:
            return
        consumed = self._chunk_len - self._raws.__length_hint__()
        bit_generator = self._bit_generator
        bit_generator.state = self._chunk_state
        if consumed:
            bit_generator.random_raw(consumed, output=False)
        state = bit_generator.state
        state["has_uint32"] = int(self._has_half)
        state["uinteger"] = self._half
        bit_generator.state = state
        # Every later draw reaches _refill, which refuses.
        self._closed = True
        self._raws = iter(())
        self._has_half = False


class _GeneratorDraws:
    """:class:`DrawStream`'s interface over the generator's own methods."""

    def __init__(self, generator: np.random.Generator) -> None:
        self.random = generator.random
        self._integers = generator.integers

    def integers(self, k: int) -> int:
        return int(self._integers(0, k))


@contextmanager
def draw_stream(generator: np.random.Generator) -> Iterator[DrawStream]:
    """Open an exact bulk stream of ``generator``'s scalar draws.

    Usage::

        with draw_stream(generator) as draws:
            u = draws.random()        # == generator.random()
            i = draws.integers(k)     # == int(generator.integers(0, k))

    On exit, exceptions included, ``generator`` is in the state the same
    sequence of scalar calls would have left it in, so later draws
    (vectorized ones too) continue the stream.  Do not draw from
    ``generator`` itself while the block is open.  Bit generators outside
    PCG64, PCG64DXSM, Philox and SFC64 get the generator's own methods.
    """
    if generator.bit_generator.state["bit_generator"] not in _SPLIT_RAW_BIT_GENERATORS:
        yield _GeneratorDraws(generator)  # type: ignore[misc]
        return
    stream = DrawStream(generator.bit_generator)
    try:
        yield stream
    finally:
        stream.close()


def _state_to_jsonable(value):
    """Deep-copy a bit-generator state into JSON-safe builtins."""
    if isinstance(value, dict):
        return {key: _state_to_jsonable(item) for key, item in value.items()}
    if isinstance(value, np.ndarray):
        return {"__ndarray__": value.tolist(), "dtype": str(value.dtype)}
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def _state_from_jsonable(value):
    """Inverse of :func:`_state_to_jsonable` (idempotent on native states)."""
    if isinstance(value, dict):
        if "__ndarray__" in value:
            return np.asarray(value["__ndarray__"], dtype=value["dtype"])
        return {key: _state_from_jsonable(item) for key, item in value.items()}
    return value


def serialize_rng_state(generator: np.random.Generator) -> dict:
    """JSON-serialisable snapshot of ``generator.bit_generator.state``.

    Bit-generator states mix Python ints, numpy scalars, and (for MT19937)
    uint32 arrays; this normalises all of them to builtins so the snapshot
    survives a ``json.dumps`` round trip inside a training checkpoint.
    Restore with :func:`restore_rng_state` or :func:`generator_from_state`.
    """
    return _state_to_jsonable(generator.bit_generator.state)


def restore_rng_state(generator: np.random.Generator, state: dict) -> None:
    """Restore ``generator`` in place to a :func:`serialize_rng_state` snapshot.

    The generator's subsequent draws are bit-identical to the draws the
    snapshotted generator would have produced — the property crash-safe
    training resume rests on.
    """
    generator.bit_generator.state = _state_from_jsonable(state)


def generator_from_state(state: dict) -> np.random.Generator:
    """Build a fresh ``Generator`` from a :func:`serialize_rng_state` snapshot."""
    native = _state_from_jsonable(state)
    name = native.get("bit_generator", "PCG64")
    bit_generator_cls = getattr(np.random, str(name), None)
    if bit_generator_cls is None:
        raise ValueError(f"unknown bit generator {name!r} in rng state")
    bit_generator = bit_generator_cls()
    bit_generator.state = native
    return np.random.Generator(bit_generator)


def bench_seed() -> int:
    """The benchmark suite's shared master seed.

    Benches must derive all randomness from this helper (or
    :func:`bench_rng`) instead of ad-hoc literals, so that serial and
    parallel timings of the same workload sample the same graphs and
    walks.  Overridable via the ``REPRO_BENCH_SEED`` environment variable.
    """
    return int(os.environ.get("REPRO_BENCH_SEED", "0"))


def bench_rng(seed: int | None = None) -> np.random.Generator:
    """A fresh generator seeded with :func:`bench_seed` (or ``seed``)."""
    if seed is None:
        seed = bench_seed()
    return ensure_rng(int(seed))


class RngMixin:
    """Mixin that stores a normalised generator under ``self.rng``."""

    def __init__(self, rng: int | np.random.Generator | None = None) -> None:
        self.rng = ensure_rng(rng)
