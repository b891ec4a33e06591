"""The batched scoring engine: one loaded artifact, many cheap queries.

Three cost tiers, each cached:

* **Degree features** — O(|V|·d) to build, keyed by a content fingerprint
  of the graph so a changed graph (new nodes, new edges, new weights)
  invalidates automatically while repeated queries against the same graph
  pay featurisation exactly once.
* **Score vectors** — one GNN forward pass per (model, graph).  Concurrent
  requests for an uncached vector are *coalesced* (single-flight): the
  first thread computes, the rest wait on its result, so a 32-request
  burst costs a single forward pass.  This is the serving path's only
  batching.  The forward runs the autograd-free inference path.
* **Request results** — top-k seed sets and spread estimates land in a
  bounded LRU keyed by the full request tuple, so hot queries (the same
  ``k`` against the same graph) are answered without touching the model.

Everything is thread-safe: a single lock guards cache bookkeeping, and
the numeric work (featurisation, forward pass, Monte-Carlo) runs outside
it.  Inference consumes no privacy budget — the engine only ever *reads*
the (ε, δ)-DP weights — so the artifact's provenance is attached to
results unchanged.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Any, Hashable, Iterable, Sequence

import numpy as np

from repro.core.seed_selection import score_nodes as _score_nodes
from repro.core.seed_selection import top_k_by_score
from repro.errors import TrainingError
from repro.gnn.features import degree_features
from repro.graphs.graph import Graph
from repro.im.spread import estimate_spread as _estimate_spread
from repro.obs import Observability, ensure_obs
from repro.serving.registry import ModelArtifact

__all__ = ["ScoringEngine", "graph_fingerprint", "DEFAULT_SPREAD_SEED"]

#: Engine-level default seed for served spread estimates, so identical
#: requests return identical numbers unless the caller asks otherwise.
DEFAULT_SPREAD_SEED = 0x51AB


def graph_fingerprint(graph: Graph) -> str:
    """Content hash of a graph (nodes, arcs, weights) for cache keying.

    Two graphs with equal structure and weights share a fingerprint;
    any change — one edge, one weight — produces a new one, which is what
    invalidates every per-graph cache entry in the engine.
    """
    sources, targets, weights = graph.edge_arrays()
    digest = hashlib.sha256()
    digest.update(int(graph.num_nodes).to_bytes(8, "little"))
    digest.update(np.ascontiguousarray(sources, dtype=np.int64).tobytes())
    digest.update(np.ascontiguousarray(targets, dtype=np.int64).tobytes())
    digest.update(np.ascontiguousarray(weights, dtype=np.float64).tobytes())
    return digest.hexdigest()


class _LRUCache:
    """Bounded ordered-dict LRU.  Callers hold the owning engine's lock."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise TrainingError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Hashable) -> Any:
        if key in self._entries:
            self._entries.move_to_end(key)
            self.hits += 1
            return self._entries[key]
        self.misses += 1
        return None

    def put(self, key: Hashable, value: Any) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def pop(self, key: Hashable) -> bool:
        """Drop ``key`` if present; returns whether an entry was removed."""
        return self._entries.pop(key, None) is not None

    def pop_where(self, predicate) -> int:
        """Drop every entry whose key satisfies ``predicate``; returns count."""
        doomed = [key for key in self._entries if predicate(key)]
        for key in doomed:
            del self._entries[key]
        return len(doomed)

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict[str, int]:
        return {
            "size": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


class ScoringEngine:
    """Serves influence queries for one published artifact.

    Args:
        artifact: the loaded model + provenance bundle.
        obs: optional observability bundle; cache hits/misses and coalesced
            requests are counted under ``serve.engine.*``.
        feature_cache_size: distinct graphs whose degree features stay
            resident.
        score_cache_size: distinct graphs whose full score vector stays
            resident.
        result_cache_size: completed request results (seed sets, spreads)
            kept for exact-match replay.
    """

    def __init__(
        self,
        artifact: ModelArtifact,
        *,
        obs: Observability | None = None,
        feature_cache_size: int = 8,
        score_cache_size: int = 8,
        result_cache_size: int = 256,
    ) -> None:
        self.artifact = artifact
        self.model = artifact.model
        self.obs = ensure_obs(obs)
        self._lock = threading.Lock()
        self._features = _LRUCache(feature_cache_size)
        self._scores = _LRUCache(score_cache_size)
        self._results = _LRUCache(result_cache_size)
        #: key -> Event for score vectors currently being computed.
        self._inflight: dict[str, threading.Event] = {}
        #: how many requests were answered by waiting on another thread's
        #: forward pass instead of running their own.
        self.coalesced = 0
        #: GNN forward passes actually executed (the cost that matters —
        #: cache lookups may miss many times per single computation under
        #: contention, but only the single-flight leader ever pays this).
        self.forward_passes = 0

    # ------------------------------------------------------------------ #
    def fingerprint(self, graph: Graph) -> str:
        """Content fingerprint of ``graph`` (see :func:`graph_fingerprint`)."""
        return graph_fingerprint(graph)

    def features(self, graph: Graph, *, fingerprint: str | None = None) -> np.ndarray:
        """Degree features for ``graph``, cached by fingerprint."""
        key = fingerprint or self.fingerprint(graph)
        with self._lock:
            cached = self._features.get(key)
        if cached is not None:
            self.obs.counter("serve.engine.features.hits").inc()
            return cached
        self.obs.counter("serve.engine.features.misses").inc()
        computed = degree_features(graph, dim=self.model.config.in_features)
        with self._lock:
            self._features.put(key, computed)
        return computed

    def scores(self, graph: Graph, *, fingerprint: str | None = None) -> np.ndarray:
        """The full per-node score vector, cached and single-flighted.

        When several threads ask for the same uncached graph at once, one
        runs the forward pass and the rest block on its completion — the
        burst costs one GNN evaluation, not N.
        """
        key = fingerprint or self.fingerprint(graph)
        while True:
            with self._lock:
                cached = self._scores.get(key)
                if cached is not None:
                    self.obs.counter("serve.engine.scores.hits").inc()
                    return cached
                waiter = self._inflight.get(key)
                if waiter is None:
                    # This thread is the leader for the fingerprint.
                    event = threading.Event()
                    self._inflight[key] = event
                    break
                # A leader is already computing this vector: count the
                # coalesced wait *under the lock* — the bare += is a
                # read-modify-write that loses increments when several
                # waiters race, silently under-reporting coalescing.
                self.coalesced += 1
            self.obs.counter("serve.engine.scores.coalesced").inc()
            waiter.wait()
        try:
            self.obs.counter("serve.engine.scores.misses").inc()
            features = self.features(graph, fingerprint=key)
            with self._lock:
                self.forward_passes += 1
            with self.obs.span("serve.engine.forward"):
                scores = _score_nodes(self.model, graph, features=features)
            with self._lock:
                self._scores.put(key, scores)
            return scores
        finally:
            with self._lock:
                self._inflight.pop(key, None)
            event.set()

    # ------------------------------------------------------------------ #
    def _cached_result(self, key: Hashable | None, compute) -> Any:
        """Run ``compute`` through the result LRU (skip when key is None)."""
        if key is not None:
            with self._lock:
                cached = self._results.get(key)
            if cached is not None:
                self.obs.counter("serve.engine.results.hits").inc()
                return cached
            self.obs.counter("serve.engine.results.misses").inc()
        value = compute()
        if key is not None:
            with self._lock:
                self._results.put(key, value)
        return value

    @staticmethod
    def _rng_key(rng: int | np.random.Generator | None) -> Hashable | None:
        """Hashable cache component for ``rng``; ``None`` = uncacheable."""
        if rng is None:
            return "default"
        if isinstance(rng, (int, np.integer)):
            return int(rng)
        return None  # generator instances have hidden state; never cache

    def score_nodes(
        self,
        graph: Graph,
        nodes: Sequence[int] | None = None,
        *,
        fingerprint: str | None = None,
    ) -> np.ndarray:
        """Scores for ``nodes`` (all nodes when ``None``).

        Arbitrary node subsets are served as slices of the one cached full
        vector, so heterogeneous concurrent queries still share a single
        forward pass.
        """
        scores = self.scores(graph, fingerprint=fingerprint)
        if nodes is None:
            return scores
        index = np.asarray(list(nodes), dtype=np.int64)
        if index.size and (index.min() < 0 or index.max() >= graph.num_nodes):
            raise TrainingError(
                f"node ids must be in [0, {graph.num_nodes}), got "
                f"[{index.min()}, {index.max()}]"
            )
        return scores[index]

    def top_k_seeds(
        self,
        graph: Graph,
        k: int,
        *,
        rng: int | np.random.Generator | None = None,
        fingerprint: str | None = None,
    ) -> list[int]:
        """Top-``k`` seed set — identical to the pipeline's seed rule.

        Uses the exact :func:`repro.core.seed_selection.top_k_by_score`
        tie-break, so a published model serves the same seeds its training
        pipeline would have selected.
        """
        key_fp = fingerprint or self.fingerprint(graph)
        rng_key = self._rng_key(rng)
        cache_key = None if rng_key is None else ("seeds", key_fp, int(k), rng_key)
        return self._cached_result(
            cache_key,
            lambda: top_k_by_score(self.scores(graph, fingerprint=key_fp), k, rng),
        )

    def estimate_spread(
        self,
        graph: Graph,
        seeds: Iterable[int],
        *,
        model: str = "ic",
        steps: int | None = 1,
        num_simulations: int = 100,
        rng: int | np.random.Generator | None = DEFAULT_SPREAD_SEED,
        fingerprint: str | None = None,
    ) -> float:
        """Influence spread of ``seeds`` under the chosen diffusion model.

        Defaults to :data:`DEFAULT_SPREAD_SEED` so repeated identical
        requests are bit-identical; integer seeds build a private
        generator per call, which keeps concurrent requests independent.
        """
        seed_tuple = tuple(int(node) for node in seeds)
        key_fp = fingerprint or self.fingerprint(graph)
        rng_key = self._rng_key(rng)
        cache_key = (
            None
            if rng_key is None
            else ("spread", key_fp, seed_tuple, model, steps, num_simulations, rng_key)
        )
        return self._cached_result(
            cache_key,
            lambda: float(
                _estimate_spread(
                    graph,
                    seed_tuple,
                    model=model,
                    steps=steps,
                    num_simulations=num_simulations,
                    rng=rng,
                )
            ),
        )

    # ------------------------------------------------------------------ #
    def invalidate(self, fingerprint: str) -> dict[str, int]:
        """Selective invalidation after a live graph mutation.

        Drops exactly the entries keyed by ``fingerprint`` — the degree
        feature rows, the score vector, and any request results whose key
        embeds that fingerprint — and nothing else, so warm results for
        other graphs survive an unrelated update.  Returns how many
        entries each tier lost (what the mutation endpoint reports).
        """
        with self._lock:
            dropped = {
                "features": int(self._features.pop(fingerprint)),
                "scores": int(self._scores.pop(fingerprint)),
                # Result keys are ("seeds"|"spread", fingerprint, ...).
                "results": self._results.pop_where(
                    lambda key: isinstance(key, tuple)
                    and len(key) > 1
                    and key[1] == fingerprint
                ),
            }
        self.obs.counter("serve.engine.invalidations").inc()
        return dropped

    def stats(self) -> dict[str, Any]:
        """JSON-safe cache and coalescing counters."""
        with self._lock:
            return {
                "features": self._features.stats(),
                "scores": self._scores.stats(),
                "results": self._results.stats(),
                "coalesced": self.coalesced,
                "forward_passes": self.forward_passes,
            }
