"""Ablation studies for the design choices DESIGN.md calls out.

These go beyond the paper's own ablation (Table II) and probe three
implementation decisions:

* the frequency decay exponent μ in Eq. 9;
* the φ activation in the Theorem 2 bound (clip vs ``1 − e^{−x}``);
* the privacy accountant (Theorem 3's binomial mixture vs the classical
  Poisson-subsampled Gaussian bound at the same sampling rate).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.pipeline import PrivIMConfig, PrivIMStar
from repro.dp.accountant import poisson_subsampled_gaussian_rdp, privim_rdp_curve
from repro.dp.rdp import best_epsilon, rdp_to_dp
from repro.experiments.harness import prepare_dataset
from repro.experiments.profiles import ExperimentProfile, get_profile
from repro.experiments.reporting import ExperimentReport
from repro.im.metrics import coverage_ratio
from repro.im.spread import coverage_spread


def run_decay_ablation(
    dataset: str = "lastfm",
    profile: str | ExperimentProfile = "quick",
    *,
    epsilon: float = 3.0,
    decay_values: Sequence[float] = (0.0, 0.5, 1.0, 2.0, 4.0),
) -> ExperimentReport:
    """Spread and container shape as Eq. 9's μ varies.

    μ = 0 reduces Eq. 9 to uniform-over-available sampling; larger μ pushes
    walks away from already-frequent nodes faster.
    """
    resolved = get_profile(profile)
    setting = prepare_dataset(dataset, resolved)
    report = ExperimentReport(
        experiment_id="Ablation (decay mu)",
        title=f"Effect of the Eq. 9 decay exponent on {dataset} (eps={epsilon:g})",
        headers=["mu", "num subgraphs", "stage1+stage2", "spread", "ratio %"],
    )
    for decay in decay_values:
        config = PrivIMConfig(
            epsilon=epsilon,
            decay=decay,
            subgraph_size=resolved.subgraph_size,
            threshold=resolved.threshold,
            iterations=resolved.iterations,
            batch_size=resolved.batch_size,
            learning_rate=resolved.learning_rate,
            rng=resolved.base_seed,
        )
        pipeline = PrivIMStar(config)
        result = pipeline.fit(setting.train_graph)
        seeds = pipeline.select_seeds(setting.test_graph, setting.seed_count)
        spread = float(coverage_spread(setting.test_graph, seeds))
        report.rows.append(
            [
                decay,
                result.num_subgraphs,
                f"{result.stage1_count}+{result.stage2_count}",
                round(spread, 1),
                round(coverage_ratio(spread, setting.celf_spread), 1),
            ]
        )
        report.series.append((f"mu={decay:g}", [decay], [spread]))
    return report


def run_phi_ablation(
    dataset: str = "lastfm",
    profile: str | ExperimentProfile = "quick",
    *,
    epsilon: float = 3.0,
) -> ExperimentReport:
    """Clip vs smooth φ in the loss (Theorem 2's probability bound)."""
    resolved = get_profile(profile)
    setting = prepare_dataset(dataset, resolved)
    report = ExperimentReport(
        experiment_id="Ablation (phi)",
        title=f"Loss activation phi on {dataset} (eps={epsilon:g})",
        headers=["phi", "final loss", "spread", "ratio %"],
    )
    for phi in ("clamp", "one_minus_exp"):
        config = PrivIMConfig(
            epsilon=epsilon,
            phi=phi,
            subgraph_size=resolved.subgraph_size,
            threshold=resolved.threshold,
            iterations=resolved.iterations,
            batch_size=resolved.batch_size,
            learning_rate=resolved.learning_rate,
            rng=resolved.base_seed,
        )
        pipeline = PrivIMStar(config)
        result = pipeline.fit(setting.train_graph)
        seeds = pipeline.select_seeds(setting.test_graph, setting.seed_count)
        spread = float(coverage_spread(setting.test_graph, seeds))
        report.rows.append(
            [
                phi,
                round(result.history.losses[-1], 4),
                round(spread, 1),
                round(coverage_ratio(spread, setting.celf_spread), 1),
            ]
        )
    return report


def run_boundary_divisor_ablation(
    dataset: str = "lastfm",
    profile: str | ExperimentProfile = "quick",
    *,
    epsilon: float = 3.0,
    divisors: Sequence[int] = (1, 2, 4, 8),
) -> ExperimentReport:
    """Effect of BES's subgraph-size divisor ``s`` (Algorithm 3, line 6).

    ``s = 1`` makes stage 2 retry full-size subgraphs on the residual
    (mostly failing — boundary clusters are small); larger ``s`` harvests
    smaller boundary fragments.  The paper fixes one ``s``; this sweep
    shows the trade-off it implies.
    """
    resolved = get_profile(profile)
    setting = prepare_dataset(dataset, resolved)
    report = ExperimentReport(
        experiment_id="Ablation (BES divisor s)",
        title=f"Stage-2 subgraph-size divisor on {dataset} (eps={epsilon:g})",
        headers=["s", "stage2 size", "stage1+stage2", "spread", "ratio %"],
    )
    for divisor in divisors:
        config = PrivIMConfig(
            epsilon=epsilon,
            boundary_divisor=divisor,
            subgraph_size=resolved.subgraph_size,
            threshold=resolved.threshold,
            iterations=resolved.iterations,
            batch_size=resolved.batch_size,
            learning_rate=resolved.learning_rate,
            rng=resolved.base_seed,
        )
        pipeline = PrivIMStar(config)
        result = pipeline.fit(setting.train_graph)
        seeds = pipeline.select_seeds(setting.test_graph, setting.seed_count)
        spread = float(coverage_spread(setting.test_graph, seeds))
        report.rows.append(
            [
                divisor,
                max(resolved.subgraph_size // divisor, 2),
                f"{result.stage1_count}+{result.stage2_count}",
                round(spread, 1),
                round(coverage_ratio(spread, setting.celf_spread), 1),
            ]
        )
    return report


def run_diffusion_steps_ablation(
    dataset: str = "lastfm",
    profile: str | ExperimentProfile = "quick",
    *,
    epsilon: float = 3.0,
    steps_values: Sequence[int] = (1, 2, 3),
) -> ExperimentReport:
    """Effect of the loss's diffusion depth ``j`` (Eq. 5 / Theorem 2).

    The paper trains and evaluates at j = 1; the bound supports any
    ``j ≤ r``.  Deeper objectives reward multi-hop coverage but make the
    per-subgraph gradients (and hence the clipped signal) noisier.
    """
    resolved = get_profile(profile)
    setting = prepare_dataset(dataset, resolved)
    report = ExperimentReport(
        experiment_id="Ablation (diffusion steps j)",
        title=f"Loss diffusion depth on {dataset} (eps={epsilon:g})",
        headers=["j", "spread@j=1 eval", "ratio %"],
    )
    for steps in steps_values:
        config = PrivIMConfig(
            epsilon=epsilon,
            diffusion_steps=steps,
            subgraph_size=resolved.subgraph_size,
            threshold=resolved.threshold,
            iterations=resolved.iterations,
            batch_size=resolved.batch_size,
            learning_rate=resolved.learning_rate,
            rng=resolved.base_seed,
        )
        pipeline = PrivIMStar(config)
        pipeline.fit(setting.train_graph)
        seeds = pipeline.select_seeds(setting.test_graph, setting.seed_count)
        spread = float(coverage_spread(setting.test_graph, seeds))
        report.rows.append(
            [steps, round(spread, 1), round(coverage_ratio(spread, setting.celf_spread), 1)]
        )
    return report


def run_accountant_ablation(
    *,
    sigma_values: Sequence[float] = (0.5, 1.0, 2.0, 4.0),
    batch_size: int = 8,
    num_subgraphs: int = 200,
    max_occurrences: int = 4,
    steps: int = 30,
    delta: float = 1e-4,
    alphas: Sequence[int] = tuple(range(2, 64)),
) -> ExperimentReport:
    """ε from Theorem 3 vs the classical Poisson-subsampled bound.

    Both accountants see the same sampling rate ``q = B·N_g / m`` scaled to
    per-unit sensitivity; Theorem 3 additionally knows that a node shifts
    the batch gradient by at most ``i/N_g`` of the noise scale when it
    touches ``i`` subgraphs, which is where its advantage comes from.
    """
    report = ExperimentReport(
        experiment_id="Ablation (accountant)",
        title="Theorem 3 vs Poisson-subsampled Gaussian accounting",
        headers=["sigma", "eps (Theorem 3)", "eps (Poisson-subsampled)"],
    )
    sampling_rate = min(batch_size * max_occurrences / num_subgraphs, 1.0)
    theorem3_orders = np.linspace(1.5, 64.0, 200)
    for sigma in sigma_values:
        theorem3_gammas = steps * privim_rdp_curve(
            theorem3_orders, sigma, batch_size, num_subgraphs, max_occurrences
        )
        eps_theorem3, _ = best_epsilon(theorem3_gammas, delta, theorem3_orders)
        eps_poisson = min(
            rdp_to_dp(
                alpha,
                steps * poisson_subsampled_gaussian_rdp(int(alpha), sigma, sampling_rate),
                delta,
            )
            for alpha in alphas
        )
        report.rows.append(
            [sigma, round(max(eps_theorem3, 0.0), 4), round(max(eps_poisson, 0.0), 4)]
        )
        report.series.append(
            (f"sigma={sigma:g}", ["theorem3", "poisson"], [eps_theorem3, eps_poisson])
        )
    return report


if __name__ == "__main__":
    print(run_accountant_ablation().render())
