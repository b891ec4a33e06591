"""A power user's tuning workflow, end to end.

Shows the knobs a practitioner actually turns when deploying PrivIM* on a
new graph, in the order they should be turned:

1. **diagnose the sampler** — are the subgraphs plentiful, dense, and is
   the occurrence cap actually utilised? (`repro.sampling.diagnostics`)
2. **pick (n, M) with the indicator** instead of grid search
   (`repro.core.indicator`);
3. **suggest the clip bound** from gradient norms on a *public surrogate*
   graph (never the private data) (`repro.core.trainer.suggest_clip_bound`);
4. **train with a learning-rate schedule** (`repro.nn.schedulers`) and
5. **evaluate the ranking across budgets**, not at a single k
   (`repro.im.analysis.ranking_quality`).

Run:  python examples/tuning_workflow.py
"""

import numpy as np

from repro import DEFAULT_INDICATOR, load_dataset
from repro.core.seed_selection import score_nodes
from repro.core.trainer import DPGNNTrainer, DPTrainingConfig, suggest_clip_bound
from repro.dp import calibrate_sigma
from repro.experiments.harness import split_graph
from repro.gnn.models import build_gnn
from repro.im.analysis import ranking_quality
from repro.nn.schedulers import StepDecayLR
from repro.sampling.diagnostics import diagnose_container, render_diagnostics
from repro.sampling import DualStageSamplingConfig, sample_dual_stage


def main() -> None:
    graph = load_dataset("hepph", scale=0.05)
    train_graph, test_graph = split_graph(graph, 0.5, rng=0)
    print(f"graph: {train_graph.num_nodes} train / {test_graph.num_nodes} test nodes\n")

    # 1+2. Indicator-recommended parameters, then sample and diagnose.
    n, m_cap = DEFAULT_INDICATOR.select_parameters(
        train_graph.num_nodes, n_candidates=(10, 20, 30), m_candidates=(2, 4, 6)
    )
    print(f"indicator recommends n={n}, M={m_cap}")
    result = sample_dual_stage(
        train_graph,
        DualStageSamplingConfig(subgraph_size=n, threshold=m_cap, sampling_rate=0.8),
        rng=1,
    )
    print(render_diagnostics(
        diagnose_container(result.container, train_graph.num_nodes,
                           occurrence_bound=m_cap)
    ))
    print()

    # 3. Clip bound from a PUBLIC surrogate (here: a fresh synthetic graph
    #    of the same family — never the private training graph).
    surrogate = load_dataset("hepph", scale=0.05, rng=999)
    surrogate_pool = sample_dual_stage(
        surrogate,
        DualStageSamplingConfig(subgraph_size=n, threshold=m_cap, sampling_rate=0.8),
        rng=2,
    ).container
    model = build_gnn("grat", hidden_features=16, num_layers=2, rng=3)
    clip_bound = suggest_clip_bound(model, surrogate_pool, quantile=0.75, rng=4)
    print(f"suggested clip bound C = {clip_bound:.4f} "
          "(75th percentile of surrogate gradient norms)\n")

    # 4. Calibrate sigma for (eps=3, delta), then train with step decay.
    iterations, batch_size = 40, 8
    delta = 1.0 / (2 * train_graph.num_nodes)
    sigma = calibrate_sigma(
        3.0, delta, steps=iterations, batch_size=min(batch_size, len(result.container)),
        num_subgraphs=len(result.container), max_occurrences=m_cap,
    )
    trainer = DPGNNTrainer(
        model,
        result.container,
        DPTrainingConfig(
            iterations=iterations,
            batch_size=min(batch_size, len(result.container)),
            learning_rate=0.05,
            clip_bound=clip_bound,
            sigma=sigma,
            max_occurrences=m_cap,
        ),
        rng=5,
    )
    scheduler = StepDecayLR(trainer.optimizer, period=15, gamma=0.5)
    history = trainer.train(scheduler)
    print(f"trained {iterations} iterations at sigma={sigma:.3f}; "
          f"loss {history.losses[0]:.3f} -> {history.losses[-1]:.3f}; "
          f"spent epsilon = {trainer.spent_epsilon(delta):.3f}\n")

    # 5. Budget-agnostic evaluation: area under the spread curve vs CELF.
    scores = score_nodes(model, test_graph)
    quality = ranking_quality(test_graph, scores, budgets=[5, 10, 20])
    random_quality = ranking_quality(
        test_graph, np.random.default_rng(0).random(test_graph.num_nodes),
        budgets=[5, 10, 20],
    )
    print(f"ranking quality (AUC vs CELF): {quality:.3f}  "
          f"(random ranking: {random_quality:.3f})")


if __name__ == "__main__":
    main()
