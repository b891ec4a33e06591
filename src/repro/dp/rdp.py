"""Rényi differential privacy primitives.

Implements the paper's Definitions 3–5 and Theorem 1:

* Rényi divergence of shifted Gaussians (Lemma 5) —
  ``D_α(N(μ, σ²) ‖ N(0, σ²)) = α μ² / (2 σ²)``;
* sequential composition — RDP parameters add across iterations;
* conversion to (ε, δ)-DP (Theorem 1, the Canonne–Kamath–Steinke rule) —
  ``ε = γ + log((α − 1)/α) − (log δ + log α)/(α − 1)``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PrivacyError

#: Default order grid for optimising the RDP → DP conversion.  Matches the
#: common practice (Opacus/TF-Privacy) of a dense low range plus a sparse
#: high range.
DEFAULT_ALPHAS: tuple[float, ...] = tuple(
    [1.0 + x / 10.0 for x in range(1, 100)] + list(range(11, 64)) + [128.0, 256.0, 512.0]
)


def gaussian_rdp(alpha: float, sigma: float, *, shift: float = 1.0) -> float:
    """RDP of the Gaussian mechanism at order ``alpha`` (Lemma 5).

    For a query with sensitivity ``shift`` and noise std ``sigma``:
    ``γ(α) = α · shift² / (2 σ²)``.
    """
    if alpha <= 1:
        raise PrivacyError(f"alpha must be > 1, got {alpha}")
    if sigma <= 0:
        raise PrivacyError(f"sigma must be positive, got {sigma}")
    return alpha * shift**2 / (2.0 * sigma**2)


def compose_rdp(gammas: list[float]) -> float:
    """Sequential composition (Definition 5): RDP parameters add."""
    if any(g < 0 for g in gammas):
        raise PrivacyError("RDP parameters must be non-negative")
    return float(sum(gammas))


def rdp_to_dp(alpha: float, gamma: float, delta: float) -> float:
    """Theorem 1: convert an ``(α, γ)``-RDP guarantee to ``(ε, δ)``-DP."""
    if alpha <= 1:
        raise PrivacyError(f"alpha must be > 1, got {alpha}")
    if not 0 < delta < 1:
        raise PrivacyError(f"delta must be in (0, 1), got {delta}")
    if gamma < 0:
        raise PrivacyError(f"gamma must be non-negative, got {gamma}")
    return rdp_to_dp_curve(alpha, gamma, delta)


def rdp_to_dp_curve(alphas, gammas, delta: float):
    """Theorem 1 without validation, elementwise over arrays of orders and
    γ (or on scalars, for :func:`rdp_to_dp`).  Elementwise IEEE operations,
    so an array entry is byte-equal to the scalar conversion of that order.
    Non-finite γ pass through as non-finite ε.
    """
    return (
        gammas
        + np.log((alphas - 1.0) / alphas)
        - (np.log(delta) + np.log(alphas)) / (alphas - 1.0)
    )


def best_epsilon(
    rdp_curve, delta: float, alphas=DEFAULT_ALPHAS
) -> tuple[float, float]:
    """Minimise the converted ε over an order grid in one array pass.

    Orders whose γ is not finite are skipped; ties go to the first order.

    Args:
        rdp_curve: γ at every order of ``alphas`` (an array), or a callable
            ``alpha -> gamma`` evaluated at each order.
        delta: target δ.
        alphas: candidate orders.

    Returns:
        ``(epsilon, best_alpha)``.
    """
    if not 0 < delta < 1:
        raise PrivacyError(f"delta must be in (0, 1), got {delta}")
    orders = np.asarray(alphas, dtype=np.float64)
    if callable(rdp_curve):
        rdp_curve = [rdp_curve(alpha) for alpha in alphas]
    gammas = np.asarray(rdp_curve, dtype=np.float64)
    if orders.ndim != 1 or gammas.shape != orders.shape or orders.size == 0:
        raise PrivacyError("need one gamma per order on a non-empty alpha grid")
    if np.any(orders <= 1):
        raise PrivacyError(f"alphas must be > 1, got {orders.min()}")
    finite = np.isfinite(gammas)
    if np.any(gammas[finite] < 0):
        raise PrivacyError("gamma must be non-negative")
    epsilons = np.where(finite, rdp_to_dp_curve(orders, gammas, delta), np.inf)
    index = int(np.argmin(epsilons))
    if not np.isfinite(epsilons[index]):
        raise PrivacyError("could not find a finite epsilon on the alpha grid")
    return float(epsilons[index]), float(orders[index])
