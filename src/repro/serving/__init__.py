"""Influence-scoring inference service.

The paper's deployment story (Section III-C) is an inference workload:
score every node with ``φ(h_u)``, take the top-``k`` seeds.  Post-hoc
inference on a DP-trained model spends **no additional ε** — the privacy
budget was consumed during training and the released weights are the
(ε, δ)-DP output — so serving is privacy-free by construction.

Five dependency-free layers:

* :mod:`repro.serving.registry` — versioned on-disk artifacts bundling the
  trained weights, :class:`~repro.gnn.models.GNNConfig`, the frozen
  pipeline configuration, and the final privacy provenance (ε, δ, σ,
  steps), with the same atomic-write + SHA-256 checksum discipline as
  training checkpoints.
* :mod:`repro.serving.engine` — loads an artifact once and answers
  ``score_nodes`` / ``top_k_seeds`` / ``estimate_spread`` with cached
  per-graph degree features (keyed by a content fingerprint), an LRU
  result cache, single-flight coalescing of concurrent requests, and
  selective per-fingerprint invalidation for live graph mutations.
* :mod:`repro.serving.service` — admission control (bounded queue,
  per-request deadlines, 503/504 degradation instead of hangs),
  live graph mutations with atomic fingerprint swap (refused with 409
  inside a replica set), plus per-request metrics.
* :mod:`repro.serving.http` — a threaded stdlib JSON API
  (``/healthz``, ``/metrics``, ``/v1/score``, ``/v1/seeds``,
  ``/v1/spread``, ``/v1/models``, ``/v1/graph/edges``).
* :mod:`repro.serving.replica` — a multi-process replica set behind a
  stdlib router: N worker processes each running the HTTP server, with
  health checks, crash detection, and respawn under a restart budget.

See ``docs/serving.md`` for the artifact format and endpoint reference.
"""

from __future__ import annotations

from repro.serving.engine import ScoringEngine, graph_fingerprint
from repro.serving.http import LengthRequired, PayloadTooLarge
from repro.serving.registry import (
    ModelArtifact,
    ModelRegistry,
    PrivacyProvenance,
    load_artifact,
    save_artifact,
)
from repro.serving.replica import ReplicaConfig, ReplicaSet
from repro.serving.service import (
    BadRequest,
    Conflict,
    DeadlineExceeded,
    InfluenceService,
    ServiceConfig,
    ServiceUnavailable,
)

__all__ = [
    "BadRequest",
    "Conflict",
    "DeadlineExceeded",
    "InfluenceService",
    "LengthRequired",
    "ModelArtifact",
    "ModelRegistry",
    "PayloadTooLarge",
    "PrivacyProvenance",
    "ReplicaConfig",
    "ReplicaSet",
    "ScoringEngine",
    "ServiceConfig",
    "ServiceUnavailable",
    "graph_fingerprint",
    "load_artifact",
    "save_artifact",
]
