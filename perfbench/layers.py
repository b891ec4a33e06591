"""Where the traced run puts its spans, and how spans become per-layer metrics.

Each target names a public function or method of one program module and
the layer span its calls are recorded under.  A function reached through
two import sites (the pipeline's own import and the module attribute the
benchmark calls) is wrapped at both, under one span name.  A target the
program no longer has is skipped, and its metrics read 0.
"""

from __future__ import annotations

CLIENT_TARGETS = [
    ("repro.datasets", "load_dataset", "graphs.generate"),
    ("repro.core.pipeline", "sample_dual_stage", "sampling.sample"),
    ("repro.sampling", "sample_dual_stage", "sampling.sample"),
    ("repro.sampling.parallel", "random_walk_nodes", "sampling.walk"),
    ("repro.sharding", "build_shard_set", "sharding.build"),
    ("repro.sharding.partition", "ShardSet.load", "sharding.load"),
    ("repro.sharding", "sample_dual_stage_sharded", "sharding.sample"),
    ("repro.core.pipeline", "calibrate_sigma", "dp.calibrate"),
    ("repro.dp.accountant", "calibrate_sigma", "dp.calibrate"),
    ("repro.dp.accountant", "PrivacyAccountant.epsilon", "dp.accountant.epsilon"),
    ("repro.dp.accountant", "PrivacyAccountant.step", "dp.accountant.step"),
    ("repro.core.trainer", "gaussian_noise", "dp.noise"),
    ("repro.core.trainer", "DPGNNTrainer.train", "core.train"),
    ("repro.core.trainer", "DPGNNTrainer.train_step", "core.step"),
    ("repro.core.grad_fanout", "GradientFanout.compute", "core.grad"),
    ("repro.core.compute_plan", "ComputePlanCache.plan", "core.plan"),
    ("repro.nn.optim", "SGD.step", "core.optimizer"),
    ("repro.gnn.layers", "GCNConv.forward", "gnn.conv_forward"),
    ("repro.gnn.layers", "SAGEConv.forward", "gnn.conv_forward"),
    ("repro.gnn.layers", "GATConv.forward", "gnn.conv_forward"),
    ("repro.gnn.layers", "GRATConv.forward", "gnn.conv_forward"),
    ("repro.gnn.layers", "GINConv.forward", "gnn.conv_forward"),
    ("repro.nn.tensor", "Tensor.backward", "nn.backward"),
    ("repro.core.seed_selection", "score_nodes", "core.score"),
    ("repro.core.pipeline", "select_top_k_seeds", "core.select"),
    ("repro.core.seed_selection", "select_top_k_seeds", "core.select"),
    ("repro.im.spread", "estimate_spread", "im.spread"),
]

SERVER_TARGETS = [
    ("repro.serving.http", "_Handler.do_POST", "serving.http"),
    ("repro.serving.service", "InfluenceService.score", "serving.service"),
    ("repro.serving.service", "InfluenceService.seeds", "serving.service"),
    ("repro.serving.service", "InfluenceService.spread", "serving.service"),
    ("repro.serving.service", "InfluenceService.mutate_edges", "serving.mutate"),
    ("repro.serving.service", "graph_fingerprint", "serving.fingerprint"),
    ("repro.serving.engine", "_score_nodes", "serving.forward"),
    ("repro.serving.engine", "_estimate_spread", "im.spread"),
    ("repro.gnn.layers", "GRATConv.forward", "gnn.conv_forward"),
]

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = [
    ("graphs.generate_ms", "ms"),
    ("sampling.sample_ms", "ms"),
    ("sampling.stage1_ms", "ms"),
    ("sampling.stage2_ms", "ms"),
    ("sampling.walk_ms", "ms"),
    ("sampling.walk_calls", "count"),
    ("sampling.coordinator_ms", "ms"),
    ("sampling.walks_attempted", "count"),
    ("sampling.walks_rejected", "count"),
    ("sampling.walks_failed", "count"),
    ("sampling.subgraphs_emitted", "count"),
    ("sampling.useful_walk_share", "share"),
    ("sharding.build_ms", "ms"),
    ("sharding.load_ms", "ms"),
    ("sharding.sample_ms", "ms"),
    ("sharding.exchange_rounds", "count"),
    ("sharding.exchange_rounds_spread", "share"),
    ("sharding.frontier_forwards", "count"),
    ("sharding.frontier_forwards_spread", "share"),
    ("dp.calibrate_ms", "ms"),
    ("dp.epsilon_evals", "count"),
    ("dp.noise_ms", "ms"),
    ("dp.accountant_ms", "ms"),
    ("core.train_ms", "ms"),
    ("core.step_ms", "ms"),
    ("core.grad_ms", "ms"),
    ("core.plan_ms", "ms"),
    ("core.optimizer_ms", "ms"),
    ("gnn.conv_forward_ms", "ms"),
    ("nn.backward_ms", "ms"),
    ("core.score_ms", "ms"),
    ("core.select_ms", "ms"),
    ("im.spread_ms", "ms"),
    ("serving.forward_ms", "ms"),
    ("serving.forward_passes", "count"),
    ("serving.score_hit_share", "share"),
    ("serving.mutate_ms", "ms"),
    ("serving.fingerprint_ms", "ms"),
    ("serving.service_ms", "ms"),
    ("serving.http_ms", "ms"),
    ("trace.dark_share", "share"),
    ("trace.overhead_share", "share"),
]


def _per(by_name: dict, name: str, ops: int, field: str = "total_s") -> float:
    entry = by_name.get(name)
    if entry is None or ops == 0:
        return 0.0
    scale = 1000.0 if field != "count" else 1.0
    return scale * entry[field] / ops


def per_call_ms(by_name: dict, name: str) -> float:
    entry = by_name.get(name)
    if not entry or not entry["count"]:
        return 0.0
    return 1000.0 * entry["total_s"] / entry["count"]


def _mean(values) -> float:
    values = list(values)
    return float(sum(values) / len(values)) if values else 0.0


def _relative_range(values) -> float:
    values = list(values)
    mean = _mean(values)
    if not values or mean == 0:
        return 0.0
    return float((max(values) - min(values)) / mean)


#: the op kind whose traced ops a layer's per-op times are divided by
LAYER_KIND = {"sampling": "sample", "sharding": "sharded"}


def batch_layers(
    op_spans: dict,
    setup_spans: dict,
    traced_ops: dict,
    counts: dict,
    exact_counts: dict,
    *,
    dark_share: float,
    overhead_share: float,
) -> dict:
    """Per-layer metrics of a batch workload.

    ``op_spans`` / ``setup_spans`` are :func:`tracer.summarize` ``by_name``
    tables of spans under traced ops and under set-up; ``traced_ops``
    counts the traced ops of each kind; ``counts`` holds, per kind, the
    counters every timed op read from the public API (traced or not), and
    ``exact_counts`` one such table per input.  Times are ms per op of the
    kind that runs the layer (``sampling.*`` per flat sampling op,
    ``sharding.*`` per sharded op, the rest per training op) unless the
    name says otherwise; ``sharding.build_ms``, ``graphs.generate_ms`` and
    ``dp.calibrate_ms`` are ms per call in set-up, and ``dp.epsilon_evals``
    the accountant evaluations per calibration.
    """
    by = op_spans
    metrics = {name: 0.0 for name, _ in PER_LAYER}
    metrics["graphs.generate_ms"] = per_call_ms(setup_spans, "graphs.generate")
    metrics["sharding.build_ms"] = per_call_ms(setup_spans, "sharding.build")
    metrics["dp.calibrate_ms"] = per_call_ms(setup_spans, "dp.calibrate")
    calibrations = setup_spans.get("dp.calibrate", {}).get("count", 0)
    if calibrations:
        evals = setup_spans.get("dp.accountant.epsilon", {}).get("count", 0)
        metrics["dp.epsilon_evals"] = evals / calibrations

    def ops(metric: str) -> int:
        return traced_ops.get(LAYER_KIND.get(metric.split(".")[0], "train"), 0)

    for metric, span in [
        ("sampling.sample_ms", "sampling.sample"),
        ("sampling.walk_ms", "sampling.walk"),
        ("sharding.load_ms", "sharding.load"),
        ("sharding.sample_ms", "sharding.sample"),
        ("dp.noise_ms", "dp.noise"),
        ("core.train_ms", "core.train"),
        ("core.step_ms", "core.step"),
        ("core.grad_ms", "core.grad"),
        ("core.plan_ms", "core.plan"),
        ("core.optimizer_ms", "core.optimizer"),
        ("gnn.conv_forward_ms", "gnn.conv_forward"),
        ("nn.backward_ms", "nn.backward"),
        ("core.score_ms", "core.score"),
        ("core.select_ms", "core.select"),
        ("im.spread_ms", "im.spread"),
    ]:
        metrics[metric] = _per(by, span, ops(metric))
    metrics["sampling.walk_calls"] = _per(by, "sampling.walk", ops("sampling"), "count")
    if metrics["sampling.sample_ms"]:
        metrics["sampling.coordinator_ms"] = (
            metrics["sampling.sample_ms"] - metrics["sampling.walk_ms"]
        )
    metrics["dp.accountant_ms"] = _per(by, "dp.accountant.epsilon", ops("dp")) + _per(
        by, "dp.accountant.step", ops("dp")
    )
    # Exact counts: the first flat sampling op on each seed, so they repeat
    # for a workload seed.
    flat = exact_counts.get("sample", [])
    for key in ("walks_attempted", "walks_rejected", "walks_failed", "subgraphs_emitted"):
        metrics[f"sampling.{key}"] = _mean(c.get(key, 0) for c in flat)
    attempted = sum(c.get("walks_attempted", 0) for c in flat)
    if attempted:
        metrics["sampling.useful_walk_share"] = (
            sum(c.get("subgraphs_emitted", 0) for c in flat) / attempted
        )
    timed = counts.get("sample", [])
    metrics["sampling.stage1_ms"] = 1000.0 * _mean(c.get("stage1_s", 0.0) for c in timed)
    metrics["sampling.stage2_ms"] = 1000.0 * _mean(c.get("stage2_s", 0.0) for c in timed)
    # Measured counts: the sharded sampler's exchange varies between runs
    # of one seed with identical outputs, so it comes with its spread.
    for key in ("exchange_rounds", "frontier_forwards"):
        values = [c[key] for c in counts.get("sharded", []) if key in c]
        metrics[f"sharding.{key}"] = _mean(values)
        metrics[f"sharding.{key}_spread"] = _relative_range(values)
    metrics["trace.dark_share"] = dark_share
    metrics["trace.overhead_share"] = overhead_share
    return metrics
