"""Privacy accounting for PrivIM training (Theorem 3) and σ calibration.

The per-iteration mechanism samples ``B`` subgraphs uniformly from a
container of ``m`` and releases the noised, clipped gradient sum.  A single
node appears in at most ``N_g`` subgraphs, so the number of "touched"
subgraphs in a batch follows ``Binomial(B, N_g / m)`` and the shifted-
Gaussian divergence is mixed over that distribution (Theorem 3):

``γ(α) = 1/(α−1) · log Σ_{i=0..N_g} ρ_i · exp(α(α−1) i² / (2 N_g² σ²))``

with ``ρ_i = C(B, i) (N_g/m)^i (1 − N_g/m)^{B−i}``.  All sums are computed
in log space so large batches and orders stay stable.  ρ depends on
neither α nor σ, so :func:`privim_rdp_curve` builds it once and evaluates
the whole order grid as one array; ``tests/oracles.py`` keeps the
per-order form as the differential oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, logsumexp

from repro.errors import CalibrationError, PrivacyError
from repro.dp.rdp import DEFAULT_ALPHAS, best_epsilon


def _log_binomial_pmf(count: int, trials: int, probability: float) -> np.ndarray:
    """Log pmf of ``Binomial(trials, probability)`` at ``0..count``.

    The degenerate probabilities are handled explicitly: evaluating
    ``i * log(p)`` / ``(trials - i) * log1p(-p)`` at ``p ∈ {0, 1}`` produces
    ``0 · (-inf) = NaN`` terms (and RuntimeWarnings) even under ``np.where``
    masking, which used to poison ε when the touch probability ``N_g / m``
    reached 1.0 on small containers.
    """
    if not 0.0 <= probability <= 1.0:
        raise PrivacyError(f"probability must be in [0, 1], got {probability}")
    if probability == 0.0:
        # Point mass at i = 0.
        out = np.full(count + 1, -np.inf)
        out[0] = 0.0
        return out
    if probability == 1.0:
        # Point mass at i = trials (outside 0..count when count < trials).
        out = np.full(count + 1, -np.inf)
        if count >= trials:
            out[trials] = 0.0
        return out
    i = np.arange(count + 1)
    log_coeff = gammaln(trials + 1) - gammaln(i + 1) - gammaln(trials - i + 1)
    log_p = i * np.log(probability)
    log_q = (trials - i) * np.log1p(-probability)
    return log_coeff + log_p + log_q


def privim_rdp_curve(
    alphas,
    sigma: float,
    batch_size: int,
    num_subgraphs: int,
    max_occurrences: int,
) -> np.ndarray:
    """One-iteration RDP of Algorithm 2 at every order (Theorem 3, Eq. 8).

    Builds log ρ once, then one ``(|α|, top + 1)`` exponent matrix, and
    takes ``logsumexp`` along each row.

    Args:
        alphas: Rényi orders (each > 1).
        sigma: noise multiplier (noise std is ``sigma · C · N_g``).
        batch_size: subgraphs per batch ``B``.
        num_subgraphs: container size ``m = |G_sub|``.
        max_occurrences: occurrence bound ``N_g`` (Lemma 1) or ``N_g* = M``.

    Returns:
        γ per order, such that one iteration is ``(α, γ)``-RDP.
    """
    orders = np.asarray(alphas, dtype=np.float64)
    if orders.ndim != 1 or orders.size == 0:
        raise PrivacyError("alphas must be a non-empty 1-D grid")
    if np.any(orders <= 1):
        raise PrivacyError(f"alpha must be > 1, got {orders.min()}")
    if sigma <= 0:
        raise PrivacyError(f"sigma must be positive, got {sigma}")
    if batch_size < 1 or num_subgraphs < 1:
        raise PrivacyError("batch_size and num_subgraphs must be >= 1")
    if max_occurrences < 1:
        raise PrivacyError(f"max_occurrences must be >= 1, got {max_occurrences}")
    if batch_size > num_subgraphs:
        raise PrivacyError("batch_size cannot exceed the container size")

    touch_probability = min(max_occurrences / num_subgraphs, 1.0)
    # A node cannot touch more batch slots than min(N_g, B).
    top = min(max_occurrences, batch_size)
    scale = 2.0 * max_occurrences**2 * sigma**2

    if touch_probability >= 1.0:
        # Degenerate: every batch is fully touched; reduces to a pure
        # Gaussian shifted by the worst case i = top.
        return orders * top**2 / scale

    log_rho = _log_binomial_pmf(top, batch_size, touch_probability)
    # Probability mass of i in (top, B] collapses onto i = top (the shift
    # cannot exceed N_g · C), keeping the bound valid.
    if top < batch_size:
        i_tail = np.arange(top + 1, batch_size + 1)
        log_tail = (
            gammaln(batch_size + 1)
            - gammaln(i_tail + 1)
            - gammaln(batch_size - i_tail + 1)
            + i_tail * np.log(touch_probability)
            + (batch_size - i_tail) * np.log1p(-touch_probability)
        )
        log_rho[top] = np.logaddexp(log_rho[top], logsumexp(log_tail))

    # ρ depends on neither α nor σ: one exponent row per order.
    i = np.arange(top + 1)
    exponents = (orders * (orders - 1.0))[:, None] * i**2 / scale
    return logsumexp(log_rho + exponents, axis=1) / (orders - 1.0)


def privim_step_rdp(
    alpha: float,
    sigma: float,
    batch_size: int,
    num_subgraphs: int,
    max_occurrences: int,
) -> float:
    """One-iteration RDP of Algorithm 2 at the single order ``alpha``: the
    one-order view of :func:`privim_rdp_curve`."""
    return float(
        privim_rdp_curve((alpha,), sigma, batch_size, num_subgraphs, max_occurrences)[0]
    )


def poisson_subsampled_gaussian_rdp(
    alpha: int,
    sigma: float,
    sampling_rate: float,
) -> float:
    """Classical Poisson-subsampled Gaussian RDP (integer orders).

    The Mironov–Talwar–Zhang bound used by standard DP-SGD accountants:
    ``γ(α) = 1/(α−1) log Σ_{k=0..α} C(α,k)(1−q)^{α−k} q^k exp((k²−k)/(2σ²))``.

    Included as the comparison point for the accountant ablation in
    DESIGN.md — it ignores the occurrence structure Theorem 3 exploits.
    """
    if not isinstance(alpha, (int, np.integer)) or alpha < 2:
        raise PrivacyError(f"alpha must be an integer >= 2, got {alpha}")
    if sigma <= 0:
        raise PrivacyError(f"sigma must be positive, got {sigma}")
    if not 0.0 < sampling_rate <= 1.0:
        raise PrivacyError(f"sampling_rate must be in (0, 1], got {sampling_rate}")

    if sampling_rate == 1.0:
        # No subsampling: the mixture collapses to the plain Gaussian term
        # k = alpha, i.e. gamma = (alpha^2 - alpha)/(2 sigma^2 (alpha-1)).
        return float(alpha / (2.0 * sigma**2))

    k = np.arange(alpha + 1)
    log_coeff = gammaln(alpha + 1) - gammaln(k + 1) - gammaln(alpha - k + 1)
    with np.errstate(divide="ignore"):
        log_q = np.where(k > 0, k * np.log(sampling_rate), 0.0)
        log_1q = np.where(alpha - k > 0, (alpha - k) * np.log1p(-sampling_rate), 0.0)
    exponents = (k**2 - k) / (2.0 * sigma**2)
    return float(logsumexp(log_coeff + log_q + log_1q + exponents) / (alpha - 1.0))


@dataclass
class PrivacyAccountant:
    """Tracks cumulative RDP of Algorithm 2 over training iterations.

    Attributes:
        sigma: noise multiplier.
        batch_size: subgraphs per iteration.
        num_subgraphs: container size ``m``.
        max_occurrences: node occurrence bound ``N_g``.
        alphas: Rényi order grid for the final conversion.
    """

    sigma: float
    batch_size: int
    num_subgraphs: int
    max_occurrences: int
    alphas: tuple[float, ...] = DEFAULT_ALPHAS

    def __post_init__(self) -> None:
        self.steps = 0
        self._orders = np.asarray(self.alphas, dtype=np.float64)
        # Single-step γ over ``alphas``, computed once on first use.
        self._step_curve: np.ndarray | None = None
        # Optional budget ledger; see attach_ledger().
        self.ledger = None

    @property
    def step_curve(self) -> np.ndarray:
        """Single-step γ at every order of ``alphas`` (cached)."""
        if self._step_curve is None:
            self._step_curve = privim_rdp_curve(
                self._orders,
                self.sigma,
                self.batch_size,
                self.num_subgraphs,
                self.max_occurrences,
            )
        return self._step_curve

    def rdp_curve(self) -> np.ndarray:
        """Cumulative γ at every order of ``alphas`` after the recorded steps."""
        return self.step_curve * self.steps

    def attach_ledger(self, ledger) -> "PrivacyAccountant":
        """Emit one event per composition step to ``ledger``.

        ``ledger`` is a :class:`repro.obs.ledger.PrivacyLedger`; a training
        run checks its final ε against :meth:`epsilon` when it ends.
        Returns ``self`` for chaining.
        """
        self.ledger = ledger
        return self

    def step(self, count: int = 1) -> None:
        """Record ``count`` training iterations.

        With a ledger attached, each of the ``count`` composition steps
        emits its own event (running ε, best α) as it is recorded.
        """
        if count < 0:
            raise PrivacyError(f"count must be non-negative, got {count}")
        if self.ledger is None:
            self.steps += count
            return
        for _ in range(count):
            self.steps += 1
            self.ledger.record_step(self)

    def rdp(self, alpha: float) -> float:
        """Cumulative γ at order ``alpha`` (on the grid or off it)."""
        grid = np.flatnonzero(self._orders == alpha)
        if grid.size:
            gamma = self.step_curve[grid[0]]
        else:
            gamma = privim_step_rdp(
                alpha, self.sigma, self.batch_size, self.num_subgraphs,
                self.max_occurrences,
            )
        return float(gamma * self.steps)

    def epsilon(self, delta: float) -> float:
        """Tightest ε over the order grid for the recorded steps."""
        if self.steps == 0:
            return 0.0
        epsilon, _ = best_epsilon(self.rdp_curve(), delta, self._orders)
        return max(epsilon, 0.0)


def calibrate_sigma(
    target_epsilon: float,
    delta: float,
    steps: int,
    batch_size: int,
    num_subgraphs: int,
    max_occurrences: int,
    *,
    sigma_low: float = 1e-2,
    sigma_high: float = 1e4,
    tolerance: float = 1e-3,
) -> float:
    """Smallest noise multiplier meeting ``(target_epsilon, delta)``.

    Bisection over σ on the monotone map σ → ε(T steps), halving
    ``log(high / low)`` until ``high / low <= 1 + tolerance``.  Raises
    :class:`CalibrationError` if even ``sigma_high`` cannot reach the
    target, and :class:`PrivacyError` on a bracket or tolerance that
    could not end the search.
    """
    if target_epsilon <= 0:
        raise PrivacyError(f"target_epsilon must be positive, got {target_epsilon}")
    if steps < 1:
        raise PrivacyError(f"steps must be >= 1, got {steps}")
    if not tolerance > 0:
        raise PrivacyError(f"tolerance must be positive, got {tolerance}")
    if not 0 < sigma_low < sigma_high:
        raise PrivacyError(
            f"need 0 < sigma_low < sigma_high, got sigma_low={sigma_low}, "
            f"sigma_high={sigma_high}"
        )

    def epsilon_for(sigma: float) -> float:
        accountant = PrivacyAccountant(sigma, batch_size, num_subgraphs, max_occurrences)
        accountant.step(steps)
        return accountant.epsilon(delta)

    low, high = sigma_low, sigma_high
    if epsilon_for(high) > target_epsilon:
        raise CalibrationError(
            f"even sigma={high} gives epsilon > {target_epsilon}; "
            "reduce steps, batch size, or occurrences"
        )
    if epsilon_for(low) <= target_epsilon:
        return low
    while high / low > 1.0 + tolerance:
        middle = np.sqrt(low * high)
        if not low < middle < high:
            # The bracket is down to adjacent floats: a tolerance below
            # float spacing cannot be met, and the search would not move.
            break
        if epsilon_for(middle) > target_epsilon:
            low = middle
        else:
            high = middle
    return float(high)
