"""How far one edge mutation spreads through a served GRAT's layers.

An incremental forward after a graph mutation could recompute only the
rows a mutation can change.  This script measures how many rows that is.
It trains PrivIM* (3-layer GRAT-32) on lastfm at a quarter of its size,
the model and graph of perfbench's ``serve-mutate`` workload.  Then, for
each of ``--edges`` random absent arcs (drawn as that workload draws them:
no self-loops, neither direction present), it adds that one arc and runs
the inference forward layer by layer on the graph before and after.  A
row is *dirty* after a layer when any byte of its activation moved.

Run::

    PYTHONPATH=src python benchmarks/bench_dirty_set.py --edges 20

It prints, per layer (0 is the degree features), the median, minimum and
maximum share of dirty rows over the mutations, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics

import numpy as np

from repro import datasets
from repro.core.pipeline import PrivIMConfig, PrivIMStar
from repro.gnn.features import degree_features
from repro.gnn.inference import EdgePass, relu_


def layer_activations(model, graph) -> list[np.ndarray]:
    """The features and every convolution's (ReLU'd) output, as ``GNN.infer``
    computes them."""
    hidden = degree_features(graph, dim=model.config.in_features)
    activations = [hidden]
    edges = EdgePass(graph.edge_index(), graph.edge_arrays()[2], graph.num_nodes)
    for conv in model.convs:
        hidden = relu_(conv._infer(hidden, edges))
        activations.append(hidden)
    return activations


def dirty_shares(before: list[np.ndarray], after: list[np.ndarray]) -> list[float]:
    """Per layer, the share of rows whose bytes differ."""
    shares = []
    for old, new in zip(before, after):
        moved = np.any(
            np.ascontiguousarray(old).view(np.uint64)
            != np.ascontiguousarray(new).view(np.uint64),
            axis=1,
        )
        shares.append(float(moved.mean()))
    return shares


def absent_arcs(graph, generator, count: int) -> list[tuple[int, int]]:
    arcs: list[tuple[int, int]] = []
    while len(arcs) < count:
        u, v = (int(node) for node in generator.integers(graph.num_nodes, size=2))
        if u == v or graph.has_edge(u, v) or graph.has_edge(v, u) or (u, v) in arcs:
            continue
        arcs.append((u, v))
    return arcs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--edges", type=int, default=20, help="mutations (default: 20)")
    parser.add_argument("--scale", type=float, default=0.25, help="lastfm scale")
    parser.add_argument("--seed", type=int, default=0, help="arc draw seed")
    args = parser.parse_args(argv)

    graph = datasets.load_dataset("lastfm", scale=args.scale)
    model = PrivIMStar(PrivIMConfig(epsilon=4.0, rng=0)).fit(graph).model
    before = layer_activations(model, graph)
    per_layer: list[list[float]] = [[] for _ in before]
    for arc in absent_arcs(graph, np.random.default_rng(args.seed), args.edges):
        after = layer_activations(model, graph.add_edges([arc]))
        for layer, share in enumerate(dirty_shares(before, after)):
            per_layer[layer].append(share)
    summary = {
        "graph": {"nodes": graph.num_nodes, "arcs": graph.num_edges},
        "model": f"{model.config.model}-{model.config.hidden_features}"
        f"x{model.config.num_layers}",
        "mutations": args.edges,
        "dirty_row_share": [
            {
                "layer": layer,
                "median": round(statistics.median(shares), 4),
                "min": round(min(shares), 4),
                "max": round(max(shares), 4),
            }
            for layer, shares in enumerate(per_layer)
        ],
    }
    print(json.dumps(summary, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
