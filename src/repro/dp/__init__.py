"""Differential-privacy substrate: mechanisms, sensitivity, RDP accounting."""

from repro.dp.mechanisms import (
    gaussian_noise,
    laplace_noise,
    symmetric_multivariate_laplace_noise,
)
from repro.dp.clipping import clip_to_norm, clipped_norm_bound
from repro.dp.sensitivity import (
    edge_level_sensitivity,
    max_occurrences_dual_stage,
    max_occurrences_naive,
    node_level_sensitivity,
)
from repro.dp.rdp import best_epsilon, gaussian_rdp, rdp_to_dp, rdp_to_dp_curve, DEFAULT_ALPHAS
from repro.dp.accountant import (
    PrivacyAccountant,
    calibrate_sigma,
    poisson_subsampled_gaussian_rdp,
    privim_rdp_curve,
    privim_step_rdp,
)
from repro.dp.input_perturbation import (
    edge_flip_rate,
    randomized_response_graph,
    randomized_response_keep_probability,
)
from repro.dp.audit import (
    AuditResult,
    audit_node_membership,
    dp_advantage_bound,
    threshold_attack_advantage,
)

__all__ = [
    "gaussian_noise",
    "laplace_noise",
    "symmetric_multivariate_laplace_noise",
    "clip_to_norm",
    "clipped_norm_bound",
    "max_occurrences_naive",
    "max_occurrences_dual_stage",
    "node_level_sensitivity",
    "edge_level_sensitivity",
    "gaussian_rdp",
    "rdp_to_dp",
    "rdp_to_dp_curve",
    "best_epsilon",
    "DEFAULT_ALPHAS",
    "privim_rdp_curve",
    "privim_step_rdp",
    "poisson_subsampled_gaussian_rdp",
    "PrivacyAccountant",
    "calibrate_sigma",
    "randomized_response_graph",
    "randomized_response_keep_probability",
    "edge_flip_rate",
    "AuditResult",
    "audit_node_membership",
    "dp_advantage_bound",
    "threshold_attack_advantage",
]
