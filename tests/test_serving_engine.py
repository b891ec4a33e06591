"""Engine tests: round-trip fidelity, caching, and thread safety."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.pipeline import PrivIMConfig, PrivIMStar
from repro.core.seed_selection import score_nodes
from repro.errors import TrainingError
from repro.gnn.features import degree_features
from repro.graphs.generators import barabasi_albert_graph
from repro.serving.engine import ScoringEngine, graph_fingerprint
from repro.serving.registry import ModelRegistry, load_artifact

from tests.oracles import reference_score_nodes
from tests.test_serving_registry import make_artifact


@pytest.fixture(scope="module")
def trained():
    """One real (tiny) training run shared by the round-trip tests."""
    graph = barabasi_albert_graph(60, 3, rng=5)
    pipeline = PrivIMStar(
        PrivIMConfig(
            iterations=2,
            subgraph_size=10,
            sampling_rate=0.4,
            hidden_features=8,
            num_layers=2,
            rng=0,
        )
    )
    result = pipeline.fit(graph)
    return pipeline, result, graph


@pytest.fixture
def eval_graph():
    return barabasi_albert_graph(50, 2, rng=9)


class TestRoundTrip:
    def test_fit_export_load_serve_is_bit_identical(self, trained, eval_graph, tmp_path):
        """The acceptance criterion: published seeds == pipeline seeds."""
        pipeline, result, _ = trained
        registry = ModelRegistry(tmp_path / "registry")
        version = registry.publish(result.build_artifact(), "roundtrip")
        engine = ScoringEngine(registry.load("roundtrip", version))

        direct_scores = pipeline.score_nodes(eval_graph)
        served_scores = engine.scores(eval_graph)
        np.testing.assert_array_equal(direct_scores, served_scores)
        for k in (1, 5, 10):
            assert engine.top_k_seeds(eval_graph, k) == pipeline.select_seeds(
                eval_graph, k
            )

    def test_export_artifact_writes_loadable_file(self, trained, tmp_path):
        _, result, _ = trained
        path = result.export_artifact(tmp_path / "direct.npz", dataset="ba-60")
        engine = ScoringEngine(load_artifact(path))
        assert engine.artifact.metadata["dataset"] == "ba-60"
        assert engine.artifact.privacy.epsilon == pytest.approx(result.epsilon)
        assert engine.artifact.privacy.steps == result.history.iterations

    def test_artifact_records_trained_gnn_config(self, trained, tmp_path):
        pipeline, result, _ = trained
        artifact = result.build_artifact()
        assert artifact.gnn_config.hidden_features == 8
        assert artifact.gnn_config.num_layers == 2
        assert artifact.pipeline_config["iterations"] == 2
        assert artifact.method == "PrivIM*"


class TestFingerprintAndFeatureCache:
    def test_fingerprint_changes_with_graph_content(self, eval_graph):
        same = barabasi_albert_graph(50, 2, rng=9)
        different = barabasi_albert_graph(50, 2, rng=10)
        assert graph_fingerprint(eval_graph) == graph_fingerprint(same)
        assert graph_fingerprint(eval_graph) != graph_fingerprint(different)

    def test_features_computed_once_per_graph(self, eval_graph):
        engine = ScoringEngine(make_artifact())
        first = engine.features(eval_graph)
        second = engine.features(eval_graph)
        assert first is second  # cache returns the same array object
        stats = engine.stats()["features"]
        assert stats == {
            "size": 1, "capacity": 8, "hits": 1, "misses": 1, "evictions": 0,
        }
        np.testing.assert_array_equal(
            first, degree_features(eval_graph, dim=engine.model.config.in_features)
        )

    def test_graph_change_invalidates_scores(self, eval_graph):
        engine = ScoringEngine(make_artifact())
        before = engine.scores(eval_graph)
        changed = barabasi_albert_graph(50, 2, rng=10)
        after = engine.scores(changed)
        assert engine.stats()["scores"]["misses"] == 2
        assert before.shape == after.shape
        assert not np.array_equal(before, after)

    def test_lru_evicts_oldest_graph(self):
        engine = ScoringEngine(
            make_artifact(), feature_cache_size=1, score_cache_size=1
        )
        graphs = [barabasi_albert_graph(30, 2, rng=seed) for seed in (1, 2)]
        engine.scores(graphs[0])
        engine.scores(graphs[1])  # evicts graphs[0]
        engine.scores(graphs[0])  # recompute
        stats = engine.stats()["scores"]
        assert stats["misses"] == 3
        assert stats["evictions"] == 2
        assert stats["size"] == 1


class TestResultCacheAndQueries:
    def test_top_k_results_cached_by_request(self, eval_graph):
        engine = ScoringEngine(make_artifact())
        first = engine.top_k_seeds(eval_graph, 5)
        second = engine.top_k_seeds(eval_graph, 5)
        assert first == second
        assert engine.stats()["results"]["hits"] == 1
        engine.top_k_seeds(eval_graph, 6)  # different k: a miss
        assert engine.stats()["results"]["misses"] == 2

    def test_generator_rng_bypasses_cache(self, eval_graph):
        engine = ScoringEngine(make_artifact())
        rng = np.random.default_rng(0)
        engine.top_k_seeds(eval_graph, 5, rng=rng)
        stats = engine.stats()["results"]
        assert stats["hits"] == 0 and stats["misses"] == 0

    def test_score_subset_matches_full_vector(self, eval_graph):
        engine = ScoringEngine(make_artifact())
        full = engine.score_nodes(eval_graph)
        subset = engine.score_nodes(eval_graph, [3, 1, 7])
        np.testing.assert_array_equal(subset, full[[3, 1, 7]])
        with pytest.raises(TrainingError, match="node ids"):
            engine.score_nodes(eval_graph, [999])

    def test_spread_is_reproducible_per_request(self, eval_graph):
        engine = ScoringEngine(make_artifact())
        seeds = engine.top_k_seeds(eval_graph, 3)
        a = engine.estimate_spread(eval_graph, seeds, model="sis", steps=3)
        # Second call hits the result cache; third (fresh engine) recomputes.
        b = engine.estimate_spread(eval_graph, seeds, model="sis", steps=3)
        c = ScoringEngine(make_artifact()).estimate_spread(
            eval_graph, seeds, model="sis", steps=3
        )
        assert a == b == c

    def test_spread_seed_controls_randomness(self, eval_graph):
        engine = ScoringEngine(make_artifact())
        seeds = [0, 1, 2]
        kwargs = dict(model="sis", steps=4, num_simulations=20)
        assert engine.estimate_spread(
            eval_graph, seeds, rng=1, **kwargs
        ) == engine.estimate_spread(eval_graph, seeds, rng=1, **kwargs)


class TestConcurrency:
    def test_concurrent_scores_coalesce_to_one_forward_pass(self, eval_graph):
        engine = ScoringEngine(make_artifact())
        barrier = threading.Barrier(16)
        results: list[np.ndarray] = [None] * 16
        errors: list[Exception] = []

        def worker(index: int) -> None:
            try:
                barrier.wait(timeout=10)
                results[index] = engine.scores(eval_graph)
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(16)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        assert engine.stats()["forward_passes"] == 1  # burst cost one pass
        for result in results[1:]:
            np.testing.assert_array_equal(results[0], result)

    def test_concurrent_mixed_queries_are_consistent(self, eval_graph):
        engine = ScoringEngine(make_artifact())
        expected_seeds = ScoringEngine(make_artifact()).top_k_seeds(eval_graph, 5)
        errors: list[Exception] = []

        def worker(index: int) -> None:
            try:
                if index % 2 == 0:
                    assert engine.top_k_seeds(eval_graph, 5) == expected_seeds
                else:
                    scores = engine.score_nodes(eval_graph, [index])
                    assert scores.shape == (1,)
            except Exception as error:
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(32)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors


    def test_overlapping_leaders_on_two_graphs_get_own_scores(
        self, eval_graph, monkeypatch
    ):
        import repro.serving.engine as engine_module

        engine = ScoringEngine(make_artifact())
        other_graph = barabasi_albert_graph(70, 3, rng=4)
        both_inside = threading.Barrier(2)
        entered = []
        real_score_nodes = engine_module._score_nodes

        def overlapping(model, graph, features=None):
            entered.append(graph)
            # Both leaders are mid-forward before either computes.
            if len(entered) <= 2:
                both_inside.wait(timeout=30)
            return real_score_nodes(model, graph, features=features)

        monkeypatch.setattr(engine_module, "_score_nodes", overlapping)
        results = {}

        def lead(name, graph):
            results[name] = engine.scores(graph)

        threads = [
            threading.Thread(target=lead, args=(name, graph))
            for name, graph in (("eval", eval_graph), ("other", other_graph))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert len(entered) == 2 and entered[0] is not entered[1]
        for name, graph in (("eval", eval_graph), ("other", other_graph)):
            expected = reference_score_nodes(engine.model, graph)
            assert results[name].tobytes() == expected.tobytes(), name
        assert engine.stats()["forward_passes"] == 2


    def test_stress_concurrent_leaders_score_their_own_graphs(self):
        import sys

        engine = ScoringEngine(make_artifact(), score_cache_size=64)
        graphs = [barabasi_albert_graph(20 + index, 2, rng=index) for index in range(24)]
        results = {}

        def worker(offset):
            for index in range(offset, len(graphs), 8):
                results[index] = engine.scores(graphs[index])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert engine.stats()["forward_passes"] == len(graphs)
        for index, graph in enumerate(graphs):
            expected = reference_score_nodes(engine.model, graph)
            assert results[index].tobytes() == expected.tobytes(), index


class TestPrecomputedFeaturePassThrough:
    def test_score_nodes_accepts_precomputed_features(self, eval_graph):
        model = make_artifact().model
        features = degree_features(eval_graph, dim=model.config.in_features)
        np.testing.assert_array_equal(
            score_nodes(model, eval_graph),
            score_nodes(model, eval_graph, features=features),
        )

    def test_wrong_feature_shape_rejected(self, eval_graph):
        model = make_artifact().model
        with pytest.raises(TrainingError, match="precomputed features"):
            score_nodes(model, eval_graph, features=np.zeros((3, 2)))

    def test_pipeline_select_seeds_feature_passthrough(self, trained, eval_graph):
        pipeline, _, _ = trained
        features = degree_features(
            eval_graph, dim=pipeline.model.config.in_features
        )
        assert pipeline.select_seeds(
            eval_graph, 5, features=features
        ) == pipeline.select_seeds(eval_graph, 5)


class TestCoalescedAccounting:
    """Regression: `coalesced += 1` ran outside the engine lock, so
    concurrent waiters lost increments and /metrics under-reported."""

    def test_hammer_coalesced_counter_is_exact(self, eval_graph):
        for round_index in range(5):
            engine = ScoringEngine(make_artifact())
            release = threading.Event()
            waiting = threading.Semaphore(0)

            class _GatedDict(dict):
                """Signals when a waiter observes the in-flight event."""

                def get(self, key, default=None):
                    value = super().get(key, default)
                    if value is not None:
                        waiting.release()
                    return value

            gated = _GatedDict()
            engine._inflight = gated

            import repro.serving.engine as engine_module

            real_score_nodes = engine_module._score_nodes

            def stalled(model, graph, features=None):
                release.wait(timeout=30)
                return real_score_nodes(model, graph, features=features)

            engine_module._score_nodes = stalled
            try:
                threads = [
                    threading.Thread(
                        target=engine.scores, args=(eval_graph,)
                    )
                    for _ in range(12)
                ]
                for thread in threads:
                    thread.start()
                # wait until all 11 non-leaders are registered as waiters
                for _ in range(11):
                    assert waiting.acquire(timeout=30)
                release.set()
                for thread in threads:
                    thread.join(timeout=30)
            finally:
                engine_module._score_nodes = real_score_nodes
            stats = engine.stats()
            assert stats["coalesced"] == 11, (round_index, stats)
            assert stats["forward_passes"] == 1, (round_index, stats)

    def test_every_request_has_exactly_one_terminal_event(self, eval_graph):
        """hits + forward_passes == requests; coalesced are extra waits."""
        engine = ScoringEngine(make_artifact())
        total = 64
        barrier = threading.Barrier(16)

        def worker(index):
            if index < 16:
                barrier.wait(timeout=30)
            engine.scores(eval_graph)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(total)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        stats = engine.stats()
        assert (
            stats["scores"]["hits"] + stats["forward_passes"] == total
        ), stats


class TestSelectiveInvalidation:
    def test_invalidate_drops_only_the_touched_fingerprint(self):
        engine = ScoringEngine(make_artifact())
        graph_a = barabasi_albert_graph(40, 2, rng=1)
        graph_b = barabasi_albert_graph(40, 2, rng=2)
        fp_a = graph_fingerprint(graph_a)
        fp_b = graph_fingerprint(graph_b)
        engine.top_k_seeds(graph_a, 5, rng=3)
        engine.top_k_seeds(graph_b, 5, rng=3)
        engine.estimate_spread(graph_b, [0, 1])

        dropped = engine.invalidate(fp_a)
        assert dropped == {"features": 1, "scores": 1, "results": 1}

        # graph B stays fully warm: repeat queries are pure cache hits
        before = engine.stats()
        engine.top_k_seeds(graph_b, 5, rng=3)
        engine.estimate_spread(graph_b, [0, 1])
        after = engine.stats()
        assert after["forward_passes"] == before["forward_passes"]
        assert after["results"]["hits"] == before["results"]["hits"] + 2
        # graph A recomputes from scratch
        engine.top_k_seeds(graph_a, 5, rng=3)
        assert engine.stats()["forward_passes"] == before["forward_passes"] + 1

    def test_invalidate_unknown_fingerprint_is_a_noop(self):
        engine = ScoringEngine(make_artifact())
        graph = barabasi_albert_graph(30, 2, rng=4)
        engine.top_k_seeds(graph, 3, rng=0)
        dropped = engine.invalidate("no-such-fingerprint")
        assert dropped == {"features": 0, "scores": 0, "results": 0}
        before = engine.stats()["forward_passes"]
        engine.top_k_seeds(graph, 3, rng=0)
        assert engine.stats()["forward_passes"] == before
