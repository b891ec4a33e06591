"""Differential tests: the vectorized Theorem 3 accountant against its
per-order oracle.

:func:`repro.dp.accountant.privim_rdp_curve` builds ρ once and evaluates
the whole Rényi order grid as one array; :func:`repro.dp.rdp.best_epsilon`
converts and picks the best order in one array pass.  Both must be
byte-equal to the per-order forms in ``tests/oracles.py``, and so must
everything built on them: the accountant's ε and off-grid ``rdp(alpha)``,
the ledger's event stream, and the σ that calibration returns.

The strategies reach the two special regimes of Theorem 3: a batch larger
than the occurrence bound (``top = N_g < B``, the binomial tail folded
onto ``i = top``) and a pool no larger than ``N_g`` (touch probability 1).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.dp.accountant import (
    PrivacyAccountant,
    calibrate_sigma,
    privim_rdp_curve,
    privim_step_rdp,
)
from repro.dp.rdp import DEFAULT_ALPHAS, best_epsilon
from repro.errors import CalibrationError, PrivacyError
from repro.obs import PrivacyLedger

from tests.oracles import (
    reference_best_epsilon,
    reference_calibrate_sigma,
    reference_epsilon,
    reference_ledger_events,
    reference_privim_step_rdp,
)


@st.composite
def mechanisms(draw):
    """(σ, B, m, N_g), with m drawn near B often enough to hit N_g/m ≥ 1."""
    sigma = draw(st.floats(0.05, 20.0))
    batch_size = draw(st.integers(1, 64))
    occurrences = draw(st.integers(1, 300))
    num_subgraphs = draw(
        st.one_of(
            st.integers(batch_size, batch_size + 8),
            st.integers(batch_size, batch_size + 50_000),
        )
    )
    return sigma, batch_size, num_subgraphs, occurrences


orders = st.floats(1.0, 600.0, exclude_min=True, allow_nan=False)
alpha_grids = st.one_of(
    st.just(DEFAULT_ALPHAS),
    st.lists(orders, min_size=1, max_size=40).map(tuple),
)
deltas = st.floats(1e-8, 0.5)

TAIL = (1.3, 16, 400, 3)          # N_g = 3 < B = 16
FULL_TOUCH = (0.9, 4, 6, 8)       # N_g / m = 8/6 >= 1
BENCH = (0.9416, 8, 129, 4)       # the benchmark's training inputs
# At α − 1 = 2⁻⁵², rounding in log Σρ ≈ 0 is divided by α − 1 and γ comes
# out negative: both forms must refuse it with a PrivacyError.
NEAR_ONE = (1.0, 12, 12, 1)


def outcome(search):
    """A search's result, or the type of the PrivacyError it raised."""
    try:
        return search()
    except PrivacyError as error:
        return type(error)


def oracle_curve(mechanism, alphas) -> np.ndarray:
    return np.array(
        [reference_privim_step_rdp(alpha, *mechanism) for alpha in alphas],
        dtype=np.float64,
    )


class TestGammaCurve:
    @settings(max_examples=40, deadline=None)
    @given(mechanism=mechanisms(), alphas=alpha_grids)
    @example(mechanism=TAIL, alphas=DEFAULT_ALPHAS)
    @example(mechanism=FULL_TOUCH, alphas=DEFAULT_ALPHAS)
    @example(mechanism=BENCH, alphas=DEFAULT_ALPHAS)
    def test_curve_is_byte_equal_to_the_per_order_oracle(self, mechanism, alphas):
        curve = privim_rdp_curve(alphas, *mechanism)
        assert curve.tobytes() == oracle_curve(mechanism, alphas).tobytes()

    @settings(max_examples=30, deadline=None)
    @given(mechanism=mechanisms(), alpha=orders)
    @example(mechanism=TAIL, alpha=2.5)
    @example(mechanism=FULL_TOUCH, alpha=2.5)
    def test_step_rdp_is_the_one_order_view(self, mechanism, alpha):
        assert privim_step_rdp(alpha, *mechanism) == reference_privim_step_rdp(
            alpha, *mechanism
        )

    @settings(max_examples=30, deadline=None)
    @given(
        mechanism=mechanisms(),
        alphas=alpha_grids,
        off_grid=orders,
        steps=st.integers(0, 500),
    )
    @example(mechanism=TAIL, alphas=DEFAULT_ALPHAS, off_grid=3.14159, steps=7)
    @example(mechanism=FULL_TOUCH, alphas=(1.5, 4.0), off_grid=3.0, steps=7)
    def test_rdp_answers_on_and_off_the_grid(self, mechanism, alphas, off_grid, steps):
        accountant = PrivacyAccountant(*mechanism, alphas=alphas)
        accountant.steps = steps
        for alpha in (alphas[0], alphas[-1], off_grid):
            expected = reference_privim_step_rdp(alpha, *mechanism) * steps
            assert accountant.rdp(alpha) == expected

    def test_invalid_orders_rejected(self):
        with pytest.raises(PrivacyError, match="alpha"):
            privim_rdp_curve((2.0, 1.0), *BENCH)
        with pytest.raises(PrivacyError, match="alpha"):
            privim_step_rdp(1.0, *BENCH)
        with pytest.raises(PrivacyError):
            privim_rdp_curve((), *BENCH)


class TestEpsilon:
    @settings(max_examples=40, deadline=None)
    @given(
        mechanism=mechanisms(),
        alphas=alpha_grids,
        steps=st.integers(0, 2000),
        delta=deltas,
    )
    @example(mechanism=TAIL, alphas=DEFAULT_ALPHAS, steps=30, delta=1e-5)
    @example(mechanism=FULL_TOUCH, alphas=DEFAULT_ALPHAS, steps=30, delta=1e-5)
    @example(mechanism=BENCH, alphas=DEFAULT_ALPHAS, steps=30, delta=1 / 2400)
    @example(mechanism=NEAR_ONE, alphas=(1.0000000000000002,), steps=1, delta=0.5)
    def test_epsilon_and_best_alpha_match_the_oracle(
        self, mechanism, alphas, steps, delta
    ):
        accountant = PrivacyAccountant(*mechanism, alphas=alphas)
        accountant.step(steps)
        assert outcome(lambda: accountant.epsilon(delta)) == outcome(
            lambda: reference_epsilon(*mechanism, steps, delta, alphas)
        )
        if steps:
            gammas = oracle_curve(mechanism, alphas) * steps
            by_order = iter(gammas)
            assert outcome(
                lambda: best_epsilon(accountant.rdp_curve(), delta, alphas)
            ) == outcome(
                lambda: reference_best_epsilon(lambda _: next(by_order), delta, alphas)
            )

    @settings(max_examples=60, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(
                st.sampled_from([1.5, 2.0, 8.0, 32.0, 1.5, 2.0]),
                st.one_of(
                    st.sampled_from([0.0, 0.25, 1.0, np.inf, -np.inf, np.nan]),
                    st.floats(0.0, 1e6),
                ),
            ),
            min_size=1,
            max_size=12,
        ),
        delta=deltas,
    )
    def test_conversion_skips_non_finite_and_keeps_the_first_minimum(
        self, pairs, delta
    ):
        alphas = tuple(alpha for alpha, _ in pairs)
        gammas = [gamma for _, gamma in pairs]
        by_order = iter(gammas)
        assert outcome(lambda: best_epsilon(np.array(gammas), delta, alphas)) == (
            outcome(
                lambda: reference_best_epsilon(lambda _: next(by_order), delta, alphas)
            )
        )

    def test_callable_and_array_forms_agree(self):
        curve = privim_rdp_curve(DEFAULT_ALPHAS, *BENCH) * 30
        lookup = dict(zip(DEFAULT_ALPHAS, curve))
        assert best_epsilon(curve, 1e-5) == best_epsilon(lookup.__getitem__, 1e-5)


class TestLedgerStream:
    @settings(max_examples=20, deadline=None)
    @given(
        mechanism=mechanisms(),
        steps=st.integers(1, 25),
        chunk=st.integers(1, 6),
        delta=deltas,
    )
    @example(mechanism=TAIL, steps=12, chunk=5, delta=1e-5)
    @example(mechanism=FULL_TOUCH, steps=12, chunk=5, delta=1e-5)
    def test_event_stream_matches_the_oracle(self, mechanism, steps, chunk, delta):
        accountant = PrivacyAccountant(*mechanism)
        ledger = PrivacyLedger(delta)
        accountant.attach_ledger(ledger)
        done = 0
        while done < steps:
            count = min(chunk, steps - done)
            accountant.step(count)
            done += count
        assert ledger.events == reference_ledger_events(*mechanism, steps, delta)
        assert ledger.final_epsilon == accountant.epsilon(delta)


class TestCalibration:
    @settings(max_examples=6, deadline=None)
    @given(
        target=st.floats(0.5, 8.0),
        batch_size=st.integers(1, 12),
        extra=st.integers(0, 150),
        occurrences=st.integers(1, 6),
        steps=st.integers(5, 60),
        delta=st.floats(1e-5, 1e-3),
    )
    @example(target=4.0, batch_size=8, extra=121, occurrences=4, steps=30,
             delta=1 / 2400)
    @example(target=2.0, batch_size=8, extra=40, occurrences=3, steps=20,
             delta=1e-4)
    def test_calibrated_sigma_matches_the_oracle(
        self, target, batch_size, extra, occurrences, steps, delta
    ):
        arguments = (target, delta, steps, batch_size, batch_size + extra, occurrences)

        def outcome(calibrate):
            try:
                return calibrate(*arguments)
            except CalibrationError:
                return CalibrationError

        assert outcome(calibrate_sigma) == outcome(reference_calibrate_sigma)

    @pytest.mark.parametrize("tolerance", [0.0, -1e-3, float("nan")])
    def test_non_positive_tolerance_raises_at_once(self, tolerance):
        with pytest.raises(PrivacyError, match="tolerance") as raised:
            calibrate_sigma(4.0, 1e-5, 30, 8, 129, 4, tolerance=tolerance)
        assert not isinstance(raised.value, CalibrationError)

    @pytest.mark.parametrize(
        "low, high", [(10.0, 1.0), (2.0, 2.0), (0.0, 1.0), (-1.0, 1.0)]
    )
    def test_bad_bracket_raises_a_bracket_error(self, low, high):
        with pytest.raises(PrivacyError, match="sigma_low") as raised:
            calibrate_sigma(4.0, 1e-5, 30, 8, 129, 4, sigma_low=low, sigma_high=high)
        assert not isinstance(raised.value, CalibrationError)

    def test_tolerance_below_float_spacing_terminates(self):
        sigma = calibrate_sigma(4.0, 1e-5, 30, 8, 129, 4, tolerance=1e-300)
        accountant = PrivacyAccountant(sigma, 8, 129, 4)
        accountant.step(30)
        assert accountant.epsilon(1e-5) <= 4.0
