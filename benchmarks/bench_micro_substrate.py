"""Micro-benchmarks of the substrate hot paths.

Unlike the table/figure benches, these use pytest-benchmark's normal
multi-round statistics — they measure the throughput of the pieces the
experiments are built from (sampling, one DP-SGD step, CELF, accounting).

All randomness is seeded through :func:`repro.utils.rng.bench_seed`.
Sharded dual-stage sampling (``sample_dual_stage_sharded``) is a memory
layout, not a parallel arm: its RSS is measured by
``bench_training_throughput.py``'s sharded probes.
"""

import numpy as np

from repro.core.trainer import DPGNNTrainer, DPTrainingConfig
from repro.datasets.registry import load_dataset
from repro.dp.accountant import PrivacyAccountant
from repro.gnn.models import build_gnn
from repro.im.celf import celf_coverage
from repro.sampling import (
    DualStageSamplingConfig,
    NaiveSamplingConfig,
    sample_dual_stage,
    sample_naive,
)
from repro.utils.rng import bench_seed


def _graph():
    return load_dataset("lastfm", scale=0.1)


def test_bench_dual_stage_sampling(benchmark):
    graph = _graph()
    config = DualStageSamplingConfig(subgraph_size=30, threshold=4, sampling_rate=0.4)
    result = benchmark(sample_dual_stage, graph, config, bench_seed())
    assert len(result.container) > 0


def test_bench_naive_sampling(benchmark):
    graph = _graph()
    config = NaiveSamplingConfig(subgraph_size=30, sampling_rate=0.4)
    run = benchmark(sample_naive, graph, config, bench_seed())
    assert run.container is not None


def test_bench_observed_dual_stage_sampling(benchmark, record_run_summary):
    """The dual-stage workload with full observability enabled.

    Directly comparable to ``test_bench_dual_stage_sampling`` (same graph,
    config, and seed): the gap between the two is the cost of spans,
    counters, and run-record events on the sampling hot path.  The run
    record itself is folded into ``extra_info``.
    """
    from repro.obs import Observability, RunRecorder

    graph = _graph()
    config = DualStageSamplingConfig(subgraph_size=30, threshold=4, sampling_rate=0.4)
    recorder = RunRecorder()
    obs = Observability(recorder=recorder)
    run = benchmark(sample_dual_stage, graph, config, bench_seed(), obs=obs)
    record_run_summary(recorder.events)
    assert len(run.container) > 0
    assert benchmark.extra_info["event_counts"]["span"] >= 2


def test_bench_dp_sgd_step(benchmark):
    graph = _graph()
    container = sample_dual_stage(
        graph,
        DualStageSamplingConfig(subgraph_size=30, threshold=4, sampling_rate=0.4),
        bench_seed(),
    ).container
    model = build_gnn("grat", rng=bench_seed())
    trainer = DPGNNTrainer(
        model,
        container,
        DPTrainingConfig(iterations=1, batch_size=8, sigma=1.0, max_occurrences=4),
        rng=bench_seed(),
    )
    benchmark(trainer.train_step)


def test_bench_celf_ground_truth(benchmark):
    graph = _graph()
    seeds, spread = benchmark(celf_coverage, graph, 20)
    assert spread > 0


def test_bench_privacy_accounting(benchmark):
    def account():
        accountant = PrivacyAccountant(1.5, 16, 300, 4)
        accountant.step(100)
        return accountant.epsilon(1e-5)

    epsilon = benchmark(account)
    assert np.isfinite(epsilon)


def test_bench_full_graph_inference(benchmark):
    graph = _graph()
    model = build_gnn("grat", rng=bench_seed())
    from repro.core.seed_selection import score_nodes

    scores = benchmark(score_nodes, model, graph)
    assert scores.shape == (graph.num_nodes,)
