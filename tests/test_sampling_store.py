"""On-disk subgraph store: round-trip, faults, bit-identity.

The contract under test mirrors the repo's other execution knobs: training
from a :class:`SubgraphStore` produces byte-identical weights, per-iteration losses, and accounted ε versus the
in-memory :class:`SubgraphContainer` holding the same pool — and every
corruption mode (truncated shard, flipped bit, damaged index) is rejected
with a clean :class:`SamplingError` before any training happens.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tests.oracles import (
    assert_outcomes_identical,
    resumed_outcome,
    train_outcome,
)
from repro.errors import SamplingError
from repro.graphs.generators import powerlaw_cluster_graph
from repro.graphs.graph import Graph
from repro.sampling.container import Subgraph, SubgraphContainer, SubgraphSource
from repro.sampling.dual_stage import DualStageSamplingConfig
from repro.sampling.naive import NaiveSamplingConfig
from repro.sampling.parallel import sample_dual_stage, sample_naive
from repro.sampling.store import INDEX_NAME, SubgraphStore, SubgraphStoreWriter


@pytest.fixture(scope="module")
def pool():
    graph = powerlaw_cluster_graph(150, 3, 0.3, rng=4)
    config = DualStageSamplingConfig(
        subgraph_size=10, threshold=4, sampling_rate=0.8, walk_length=300
    )
    container = sample_dual_stage(graph, config, rng=4).container
    return graph, container


def write_store(container, path, **kwargs) -> SubgraphStore:
    writer = SubgraphStoreWriter(path, **kwargs)
    for subgraph in container:
        writer.add(subgraph)
    return writer.finalize()


def assert_subgraphs_equal(left: Subgraph, right: Subgraph) -> None:
    np.testing.assert_array_equal(left.node_map, right.node_map)
    assert left.graph.num_nodes == right.graph.num_nodes
    assert left.graph.is_directed == right.graph.is_directed
    for ours, theirs in zip(left.graph.out_csr(), right.graph.out_csr()):
        np.testing.assert_array_equal(ours, theirs)
    for ours, theirs in zip(left.graph.in_csr(), right.graph.in_csr()):
        np.testing.assert_array_equal(ours, theirs)


class TestRoundTrip:
    def test_store_is_subgraph_source(self, pool, tmp_path):
        _, container = pool
        store = write_store(container, tmp_path / "store")
        assert isinstance(store, SubgraphSource)
        assert store.in_memory is False
        store.close()

    def test_elementwise_identical(self, pool, tmp_path):
        graph, container = pool
        with write_store(container, tmp_path / "store", shard_bytes=4096) as store:
            assert len(store) == len(container)
            for index in range(len(container)):
                assert_subgraphs_equal(container[index], store[index])
            # negative indexing matches list semantics
            assert_subgraphs_equal(container[len(container) - 1], store[-1])

    def test_occurrence_audit_matches_in_memory(self, pool, tmp_path):
        graph, container = pool
        with write_store(container, tmp_path / "store") as store:
            np.testing.assert_array_equal(
                store.occurrence_counts(graph.num_nodes),
                container.occurrence_counts(graph.num_nodes),
            )
            assert store.max_occurrence(graph.num_nodes) == container.max_occurrence(
                graph.num_nodes
            )
            assert store.coverage(graph.num_nodes) == container.coverage(
                graph.num_nodes
            )

    def test_sampler_spills_identical_pool(self, pool, tmp_path):
        """sink= on the sampler emits the exact sequence the in-memory
        container receives (same seed, same validation schedule)."""
        graph, container = pool
        config = DualStageSamplingConfig(
            subgraph_size=10, threshold=4, sampling_rate=0.8, walk_length=300
        )
        writer = SubgraphStoreWriter(tmp_path / "spill")
        run = sample_dual_stage(graph, config, rng=4, sink=writer)
        assert run.container is writer
        with writer.finalize() as store:
            assert len(store) == len(container)
            for index in range(len(container)):
                assert_subgraphs_equal(container[index], store[index])

    def test_naive_sampler_accepts_sink(self, tmp_path):
        graph = powerlaw_cluster_graph(120, 3, 0.3, rng=9)
        config = NaiveSamplingConfig(
            theta=10, subgraph_size=8, hops=2, sampling_rate=0.5, walk_length=200
        )
        reference = sample_naive(graph, config, rng=3).container
        writer = SubgraphStoreWriter(tmp_path / "naive")
        sample_naive(graph, config, rng=3, sink=writer)
        with writer.finalize() as store:
            assert len(store) == len(reference)
            for index in range(len(reference)):
                assert_subgraphs_equal(reference[index], store[index])

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        num_subgraphs=st.integers(1, 12),
        shard_bytes=st.sampled_from([1, 512, 1 << 20]),
    )
    def test_roundtrip_property(self, seed, num_subgraphs, shard_bytes, tmp_path_factory):
        """Any pool of random induced subgraphs survives store→reload
        element-wise, for shard sizes from one-record-per-shard upward."""
        rng = np.random.default_rng(seed)
        graph = powerlaw_cluster_graph(60, 2, 0.3, rng=int(rng.integers(1 << 30)))
        container = SubgraphContainer()
        for _ in range(num_subgraphs):
            size = int(rng.integers(1, 12))
            nodes = rng.choice(graph.num_nodes, size=size, replace=False)
            sub, node_map = graph.subgraph(nodes)
            container.add(Subgraph(sub, node_map))
        path = tmp_path_factory.mktemp("prop") / "store"
        with write_store(container, path, shard_bytes=shard_bytes) as store:
            assert len(store) == len(container)
            for index in range(len(container)):
                assert_subgraphs_equal(container[index], store[index])
            np.testing.assert_array_equal(
                store.occurrence_counts(graph.num_nodes),
                container.occurrence_counts(graph.num_nodes),
            )

    def test_pickle_reopens_by_path(self, pool, tmp_path):
        import pickle

        _, container = pool
        with write_store(container, tmp_path / "store") as store:
            clone = pickle.loads(pickle.dumps(store))
            try:
                assert_subgraphs_equal(store[2], clone[2])
            finally:
                clone.close()


class TestWriterGuards:
    def test_refuses_existing_store(self, pool, tmp_path):
        _, container = pool
        write_store(container, tmp_path / "store").close()
        with pytest.raises(SamplingError, match="already holds"):
            SubgraphStoreWriter(tmp_path / "store")

    def test_refuses_add_after_finalize(self, pool, tmp_path):
        _, container = pool
        writer = SubgraphStoreWriter(tmp_path / "store")
        writer.add(container[0])
        writer.finalize().close()
        with pytest.raises(SamplingError, match="finalized"):
            writer.add(container[1])
        with pytest.raises(SamplingError, match="finalized"):
            writer.finalize()

    def test_empty_store_roundtrips(self, tmp_path):
        with SubgraphStoreWriter(tmp_path / "empty").finalize() as store:
            assert len(store) == 0
            assert store.max_occurrence(10) == 0

    def test_writer_memory_is_bounded_by_shard_bytes(self, pool, tmp_path):
        _, container = pool
        writer = SubgraphStoreWriter(tmp_path / "store", shard_bytes=2048)
        for subgraph in container:
            writer.add(subgraph)
            # add() flushes whenever the buffer reaches shard_bytes, so the
            # writer never holds more than one shard's worth of records.
            assert writer._pending_bytes < 2048
        with writer.finalize() as store:
            shards = [
                name
                for name in os.listdir(tmp_path / "store")
                if name.startswith("shard-")
            ]
            assert len(shards) > 1
            assert len(store) == len(container)


class TestFaultInjection:
    def test_truncated_shard_rejected(self, pool, tmp_path):
        _, container = pool
        write_store(container, tmp_path / "store").close()
        shard = tmp_path / "store" / "shard-00000.bin"
        blob = shard.read_bytes()
        shard.write_bytes(blob[:-16])
        with pytest.raises(SamplingError, match="truncated"):
            SubgraphStore(tmp_path / "store")

    def test_bitflipped_shard_rejected(self, pool, tmp_path):
        _, container = pool
        write_store(container, tmp_path / "store").close()
        shard = tmp_path / "store" / "shard-00000.bin"
        blob = bytearray(shard.read_bytes())
        blob[-8] ^= 0x40
        shard.write_bytes(bytes(blob))
        with pytest.raises(SamplingError, match="checksum"):
            SubgraphStore(tmp_path / "store")

    def test_missing_shard_rejected(self, pool, tmp_path):
        _, container = pool
        write_store(container, tmp_path / "store").close()
        os.remove(tmp_path / "store" / "shard-00000.bin")
        with pytest.raises(SamplingError, match="missing"):
            SubgraphStore(tmp_path / "store")

    def test_corrupt_index_rejected(self, pool, tmp_path):
        _, container = pool
        write_store(container, tmp_path / "store").close()
        index = tmp_path / "store" / INDEX_NAME
        blob = bytearray(index.read_bytes())
        blob[-1] ^= 0x01
        index.write_bytes(bytes(blob))
        with pytest.raises(SamplingError, match="checksum"):
            SubgraphStore(tmp_path / "store")

    def test_garbage_index_rejected(self, tmp_path):
        os.makedirs(tmp_path / "store")
        (tmp_path / "store" / INDEX_NAME).write_bytes(b"not a store at all")
        with pytest.raises(SamplingError):
            SubgraphStore(tmp_path / "store")

    def test_missing_store_rejected(self, tmp_path):
        with pytest.raises(SamplingError, match="no subgraph store index"):
            SubgraphStore(tmp_path / "nope")

    def test_wrong_magic_rejected(self, pool, tmp_path):
        """A training checkpoint is not a store index, even though both use
        the same checksummed framing."""
        _, container = pool
        write_store(container, tmp_path / "store").close()
        index = tmp_path / "store" / INDEX_NAME
        blob = index.read_bytes()
        index.write_bytes(b"REPRO-CKPT-v1" + blob[len(b"REPRO-SGIDX-v1"):])
        with pytest.raises(SamplingError):
            SubgraphStore(tmp_path / "store")

    def test_closed_store_rejects_reads(self, pool, tmp_path):
        _, container = pool
        store = write_store(container, tmp_path / "store")
        store.close()
        with pytest.raises(SamplingError, match="closed"):
            store[0]
        with pytest.raises(SamplingError, match="closed"):
            store.occurrence_counts(10)


class TestStoreTrainingBitIdentity:
    """The acceptance criterion: store training is byte-identical."""

    @pytest.fixture(scope="class")
    def sources(self, pool, tmp_path_factory):
        _, container = pool
        store = write_store(
            container, tmp_path_factory.mktemp("oracle") / "store", shard_bytes=8192
        )
        yield container, store
        store.close()

    @pytest.mark.parametrize("grad_mode", ["loop", "vectorized"])
    def test_store_matches_memory(self, sources, grad_mode):
        container, store = sources
        oracle = train_outcome(container)
        candidate = train_outcome(store, grad_mode=grad_mode)
        assert_outcomes_identical(candidate, oracle, label=f"store/{grad_mode}")

    def test_nonprivate_store_matches_memory(self, sources):
        container, store = sources
        oracle = train_outcome(container, sigma=0.0, clip_bound=None)
        candidate = train_outcome(store, sigma=0.0, clip_bound=None)
        assert_outcomes_identical(candidate, oracle, label="nonprivate store")

    def test_store_fanout_workers_match_memory(self, sources):
        """Workers re-open the store by path (pickle) and page records in
        on demand — still byte-identical."""
        container, store = sources
        oracle = train_outcome(container)
        candidate = train_outcome(store, grad_workers=2)
        assert_outcomes_identical(candidate, oracle, label="store workers=2")

    def test_resume_from_store(self, sources, tmp_path):
        """A checkpoint written mid-run from a store resumes to the
        uninterrupted in-memory outcome."""
        container, store = sources
        oracle = train_outcome(container, iterations=6)
        candidate = resumed_outcome(
            store,
            split_at=3,
            checkpoint_path=str(tmp_path / "ckpt.npz"),
            iterations=6,
        )
        assert_outcomes_identical(candidate, oracle, label="store resume")
