"""Dataset generation is byte-identical while drawing through the exact stream.

* :func:`powerlaw_cluster_graph` against the scalar Holme–Kim loop
  :func:`tests.oracles.reference_powerlaw_cluster_graph`: the same arcs,
  and the caller's generator left in the same state.
* The two directed families against themselves with the stream swapped
  for the generator's own scalar calls.
* Pins: :func:`graph_fingerprint` of every registry dataset at a small
  scale, and of hepph at full scale, recorded from the scalar-draw
  generators.  A numpy release that moves a draw fails here.
"""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets import synthetic
from repro.datasets.registry import DATASETS, load_dataset
from repro.graphs.generators import powerlaw_cluster_graph
from repro.serving.engine import graph_fingerprint
from repro.utils.rng import _GeneratorDraws, serialize_rng_state
from tests.oracles import reference_powerlaw_cluster_graph


def csr_arrays(graph):
    return (*graph.out_csr(), *graph.in_csr(), graph.is_directed)


def assert_same_graph(candidate, oracle):
    for got, expected in zip(csr_arrays(candidate), csr_arrays(oracle)):
        assert np.array_equal(got, expected)


def twin_generators(seed: int, buffered: bool):
    first, second = np.random.default_rng(seed), np.random.default_rng(seed)
    if buffered:  # leave a uint32 half in the state, as a vectorized draw can
        first.integers(0, 5, dtype=np.uint32)
        second.integers(0, 5, dtype=np.uint32)
    return first, second


def assert_same_continuation(candidate, oracle):
    assert serialize_rng_state(candidate) == serialize_rng_state(oracle)
    assert int(candidate.integers(0, 7)) == int(oracle.integers(0, 7))
    assert candidate.random(3).tolist() == oracle.random(3).tolist()


@contextmanager
def scalar_stream(generator):
    """``draw_stream``'s stand-in that calls the generator per draw."""
    yield _GeneratorDraws(generator)


class TestPowerlawClusterOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        num_nodes=st.integers(2, 250),
        attachment=st.integers(1, 8),
        triangle_probability=st.sampled_from([0.0, 0.3, 1.0])
        | st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32),
        buffered=st.booleans(),
    )
    def test_matches_the_scalar_loop(
        self, num_nodes, attachment, triangle_probability, seed, buffered
    ):
        attachment = min(attachment, num_nodes - 1)
        candidate_rng, oracle_rng = twin_generators(seed, buffered)
        candidate = powerlaw_cluster_graph(
            num_nodes, attachment, triangle_probability, rng=candidate_rng
        )
        oracle = reference_powerlaw_cluster_graph(
            num_nodes, attachment, triangle_probability, rng=oracle_rng
        )
        assert_same_graph(candidate, oracle)
        assert_same_continuation(candidate_rng, oracle_rng)

    def test_matches_at_a_registry_size(self):
        candidate_rng, oracle_rng = twin_generators(7, False)
        candidate = powerlaw_cluster_graph(3_000, 10, 0.3, rng=candidate_rng)
        oracle = reference_powerlaw_cluster_graph(3_000, 10, 0.3, rng=oracle_rng)
        assert_same_graph(candidate, oracle)
        assert_same_continuation(candidate_rng, oracle_rng)


class TestDirectedFamilies:
    @settings(max_examples=25, deadline=None)
    @given(
        num_nodes=st.integers(2, 200),
        out_degree=st.integers(1, 6),
        reciprocity=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32),
        buffered=st.booleans(),
    )
    def test_scale_free_matches_scalar_draws(
        self, num_nodes, out_degree, reciprocity, seed, buffered
    ):
        candidate_rng, oracle_rng = twin_generators(seed, buffered)
        candidate = synthetic.scale_free_directed_graph(
            num_nodes, out_degree, reciprocity=reciprocity, rng=candidate_rng
        )
        with mock.patch.object(synthetic, "draw_stream", scalar_stream):
            oracle = synthetic.scale_free_directed_graph(
                num_nodes, out_degree, reciprocity=reciprocity, rng=oracle_rng
            )
        assert_same_graph(candidate, oracle)
        assert_same_continuation(candidate_rng, oracle_rng)

    @settings(max_examples=25, deadline=None)
    @given(
        num_nodes=st.integers(4, 200),
        num_communities=st.integers(1, 10),
        degree_share=st.floats(0.01, 0.5),
        mixing=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32),
    )
    def test_community_matches_scalar_draws(
        self, num_nodes, num_communities, degree_share, mixing, seed
    ):
        # The vectorized community draw before the stream opens can leave a
        # buffered uint32 half, which the stream must start from.
        num_communities = min(num_communities, num_nodes)
        avg_degree = degree_share * (num_nodes - 1)
        candidate_rng, oracle_rng = twin_generators(seed, False)
        candidate = synthetic.community_directed_graph(
            num_nodes, num_communities, avg_degree, mixing=mixing, rng=candidate_rng
        )
        with mock.patch.object(synthetic, "draw_stream", scalar_stream):
            oracle = synthetic.community_directed_graph(
                num_nodes, num_communities, avg_degree, mixing=mixing, rng=oracle_rng
            )
        assert_same_graph(candidate, oracle)
        assert_same_continuation(candidate_rng, oracle_rng)


#: ``graph_fingerprint(load_dataset(name, scale=scale))`` recorded with the
#: scalar-draw generators (numpy 2.4).
DATASET_PINS = {
    ("email", 0.2): "f44bf1f885afeb58967de669d8fc9a45c119098c0214db21e6f83a0207ec860c",
    ("bitcoin", 0.05): "e11f0af82d9ba3779c4c65c1a652e3ef585428a61bca481652599b979015d0f9",
    ("lastfm", 0.05): "3d936c2564b54279d085a73ea2ff1762312c62b343650e232126ae6aea769267",
    ("hepph", 0.02): "d7c4bb77c68af1e591a11a337aa3de831fda7ad93435621780eafa3b81e075ec",
    ("facebook", 0.01): "d31a9d607beb73d550c2051847961e1b9b9bc3521f67e23b458c80f6215d84d8",
    ("gowalla", 0.002): "1b41b9a3b9e916624d4265bc7204637ea3bf81b3bc960a92bce5163ada09cb6a",
    ("friendster", 5e-6): "62880bb1650a8e3ec9ed8e2b282772bd9ad7b77023cf07b20f65867927e9eac9",
    ("hepph", 1.0): "b072c0f00630ebcb40162cf4544264ab187515d4ede36e3bea1c7f274865a362",
}


class TestDatasetPins:
    def test_every_registry_dataset_is_pinned(self):
        assert {name for name, _ in DATASET_PINS} == set(DATASETS)

    @pytest.mark.parametrize(("name", "scale"), sorted(DATASET_PINS))
    def test_fingerprint(self, name, scale):
        graph = load_dataset(name, scale=scale)
        assert graph_fingerprint(graph) == DATASET_PINS[(name, scale)]
