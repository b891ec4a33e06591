"""The batch workload ``pipeline-hepph``: the paper pipeline's stages as
short closed-loop calls into the public API, one op each.

* ``sample`` — Algorithm 3 dual-stage sampling on full-scale hepph at the
  paper's n=40, M=4, μ=1, L=200, τ=0.3, from 16 expected start nodes.
* ``sharded`` — the same op and seed through the sharded sampler (4
  shards saved in set-up and reopened by every op, one in-process
  worker), checked bit-identical to the flat sampler's output.
* ``train`` — DP-SGD (Algorithm 2, T=30, B=8, GRAT-32) on a pool sampled
  in set-up from hepph at a tenth of its size, at the σ calibrated in
  set-up for ε=4, then the trainer's accountant ε,
  ``select_top_k_seeds(k=50)`` and ``estimate_spread``.

A run's inputs are ``(kind, seed)`` pairs with seeds drawn from the
workload seed; the runner repeats them round-robin.  Every op's outputs
pass the checks in :meth:`PipelineHepph.problems`; a failed check or an
exception counts the op as failed instead of ending the run.
"""

from __future__ import annotations

import hashlib
import tempfile
from dataclasses import dataclass
from typing import Callable

import numpy as np

import repro.core.seed_selection as seed_selection
import repro.datasets as datasets
import repro.dp.accountant as accountant
import repro.im.spread as spread_module
import repro.sampling as sampling
import repro.sharding as sharding
from repro.core import DPGNNTrainer, DPTrainingConfig
from repro.gnn import build_gnn

from common import digest, op_seeds

K = 50  # seeds per op
THRESHOLD = 4  # the paper's M, so N_g* = M = 4
SUBGRAPH_SIZE = 40  # the paper's n
EPSILON = 4.0
#: seed of what set-up builds (shard partition, training pool), so set-up
#: does the same work in every run; the op inputs follow --seed.
SETUP_SEED = 0


@dataclass
class Context:
    """Run parameters every workload sees."""

    seed: int
    seconds: float
    trace: bool
    scale: float
    workdir: str
    #: test hook: ``tamper(outcome)`` may corrupt an op's outcome before
    #: it is checked, to show that a bad output fails the op.
    tamper: Callable[[dict], None] | None = None


def container_fingerprint(container) -> str:
    """SHA-256 of every subgraph's node map and arc count, in pool order."""
    hasher = hashlib.sha256()
    for index in range(len(container)):
        subgraph = container[index]
        hasher.update(np.ascontiguousarray(subgraph.node_map, dtype=np.int64).tobytes())
        hasher.update(int(subgraph.graph.num_edges).to_bytes(8, "little"))
    return hasher.hexdigest()


def sampling_config(graph, starts: float) -> sampling.DualStageSamplingConfig:
    """The paper's sampler settings with ``starts`` expected start nodes
    (the paper's q = 256/|V| is ``starts=256``)."""
    return sampling.DualStageSamplingConfig(
        subgraph_size=SUBGRAPH_SIZE,
        threshold=THRESHOLD,
        decay=1.0,
        sampling_rate=min(starts / graph.num_nodes, 1.0),
        walk_length=200,
        restart_probability=0.3,
    )


def result_outcome(result, target_epsilon: float) -> dict:
    """The privacy-relevant values of a ``PipelineResult``."""
    return {
        "sigma": result.sigma,
        "epsilon": result.epsilon,
        "target_epsilon": target_epsilon,
        "delta": result.delta,
        "steps": result.history.iterations,
        "batch": min(result.config.batch_size, result.num_subgraphs),
        "num_subgraphs": result.num_subgraphs,
        "bound": result.max_occurrences,
        "max_occurrence": result.empirical_max_occurrence,
    }


def privacy_problems(outcome: dict) -> list[str]:
    """σ > 0, ε within target and equal to the accountant's, occurrences
    within N_g* = M — the invariants the privacy proof rests on."""
    problems = []
    if not outcome["sigma"] > 0:
        problems.append(f"sigma {outcome['sigma']} is not positive")
    if not outcome["epsilon"] <= outcome["target_epsilon"]:
        problems.append(
            f"achieved epsilon {outcome['epsilon']} exceeds the target "
            f"{outcome['target_epsilon']}"
        )
    if outcome["sigma"] > 0:
        reference = accountant.PrivacyAccountant(
            outcome["sigma"], outcome["batch"], outcome["num_subgraphs"], outcome["bound"]
        )
        reference.step(outcome["steps"])
        if reference.epsilon(outcome["delta"]) != outcome["epsilon"]:
            problems.append("achieved epsilon differs from the accountant's")
    problems += occurrence_problems(outcome)
    return problems


def occurrence_problems(outcome: dict) -> list[str]:
    """The sampled pool keeps every node within N_g* = M subgraphs."""
    problems = []
    if outcome["bound"] != THRESHOLD:
        problems.append(f"occurrence bound {outcome['bound']} is not M = {THRESHOLD}")
    if outcome["max_occurrence"] > outcome["bound"]:
        problems.append(
            f"a node occurs {outcome['max_occurrence']} times, over the bound "
            f"{outcome['bound']}"
        )
    return problems


def _sampling_outcome(run, num_nodes: int) -> dict:
    stats = run.stats
    counts = {
        "walks_attempted": stats.walks_attempted,
        "walks_rejected": stats.walks_rejected,
        "walks_failed": stats.walks_failed,
        "subgraphs_emitted": stats.subgraphs_emitted,
        "stage1_s": stats.stage_seconds.get("stage1", 0.0),
        "stage2_s": stats.stage_seconds.get("stage2", 0.0),
    }
    if hasattr(stats, "exchange_rounds"):
        counts.update(
            exchange_rounds=stats.exchange_rounds,
            frontier_forwards=stats.frontier_forwards,
            transport=stats.transport,
        )
    container = run.container
    sizes = [len(container[i].node_map) for i in range(len(container))]
    return {
        "container": container_fingerprint(container),
        "num_subgraphs": len(container),
        "largest_subgraph": max(sizes, default=0),
        "bound": THRESHOLD,
        "max_occurrence": container.max_occurrence(num_nodes),
        "counts": counts,
    }


def _sampling_problems(outcome: dict) -> list[str]:
    problems = occurrence_problems(outcome)
    if outcome["num_subgraphs"] < 1:
        problems.append("sampled no subgraph")
    if outcome["num_subgraphs"] != outcome["counts"]["subgraphs_emitted"]:
        problems.append("pool size differs from the emitted-subgraph count")
    if outcome["largest_subgraph"] > SUBGRAPH_SIZE:
        problems.append(f"a subgraph has {outcome['largest_subgraph']} nodes, over n")
    return problems


def _training_problems(outcome: dict, iterations: int) -> list[str]:
    problems = privacy_problems(outcome)
    if outcome["steps"] != iterations:
        problems.append(f"trained {outcome['steps']} steps, not T = {iterations}")
    seeds = outcome["seeds"]
    if len(seeds) != K or len(set(seeds)) != K:
        problems.append(f"expected {K} distinct seeds, got {len(set(seeds))}")
    if not outcome["spread"] >= len(seeds):
        problems.append(f"spread {outcome['spread']} is below the seed count")
    return problems


class PipelineHepph:
    """Flat sampling, sharded sampling and DP-SGD with seed selection."""

    name = "pipeline-hepph"
    #: expected start nodes per sampling op; the paper's 256 take ~1 s, too
    #: long an op for its fastest repeat to sit clear of host contention.
    starts = 16.0
    #: sampling seeds per run.  Start nodes are drawn per node and walk
    #: costs follow the degrees they meet, so one seed's op costs 0.7-1.5x
    #: the mean; over 16 seeds a run's figure moves ~4% with --seed.
    sampling_seeds = 16
    #: training seeds (model initialisation and batch order) per run; the
    #: op's cost hardly depends on them.
    training_seeds = 4
    num_shards = 4
    # One shard worker, so the transport default is in-process.  With two
    # fork workers on a 2-vCPU machine the op's time followed the host's
    # CPU steal; one worker keeps partition, coordinator, walker and
    # runtime in the op.
    shard_workers = 1
    #: hepph at a tenth of its size for training: full-graph scoring of all
    #: 12k nodes takes ~0.7 s, longer than the training it follows.
    train_scale = 0.1
    iterations = 30  # the paper's T
    batch_size = 8  # the paper's B
    learning_rate = 0.005  # the paper's η
    #: outcome keys that must repeat exactly for one input
    output_keys = {
        "sample": ("container", "num_subgraphs"),
        "sharded": ("container", "num_subgraphs"),
        "train": ("sigma", "epsilon", "losses", "seeds", "spread"),
    }

    def inputs(self, ctx: Context) -> list[tuple[str, int]]:
        """One round: each sampling seed flat then sharded, with the
        training seeds spread evenly between them."""
        seeds = op_seeds(ctx.seed, self.sampling_seeds + self.training_seeds)
        sampling, training = seeds[: self.sampling_seeds], seeds[self.sampling_seeds :]
        every = self.sampling_seeds // self.training_seeds
        order = []
        for index, seed in enumerate(sampling):
            order += [("sample", seed), ("sharded", seed)]
            if index % every == every - 1:
                order.append(("train", training[index // every]))
        return order

    def build(self, ctx: Context) -> dict:
        graph = datasets.load_dataset("hepph", scale=ctx.scale)
        shard_set = sharding.build_shard_set(graph, self.num_shards, rng=SETUP_SEED)
        shard_dir = tempfile.mkdtemp(prefix="shards-", dir=ctx.workdir)
        shard_set.save(shard_dir)
        small = datasets.load_dataset("hepph", scale=min(self.train_scale, ctx.scale))
        config = sampling_config(small, 256.0)
        pool = sampling.sample_dual_stage(small, config, SETUP_SEED).container
        delta = 1.0 / (2.0 * small.num_nodes)
        batch = min(self.batch_size, len(pool))
        sigma = accountant.calibrate_sigma(
            EPSILON,
            delta,
            steps=self.iterations,
            batch_size=batch,
            num_subgraphs=len(pool),
            max_occurrences=THRESHOLD,
        )
        return {
            "graph": graph,
            "config": sampling_config(graph, self.starts),
            "shard_dir": shard_dir,
            "small": small,
            "pool": pool,
            "delta": delta,
            "batch": batch,
            "sigma": sigma,
            "max_occurrence": pool.max_occurrence(small.num_nodes),
            "flat": {},  # sampling seed -> the flat sampler's pool fingerprint
        }

    def op(self, ctx: Context, state: dict, item: tuple[str, int]):
        kind, seed = item
        if kind == "sample":
            return sampling.sample_dual_stage(state["graph"], state["config"], seed)
        if kind == "sharded":
            shard_set = sharding.ShardSet.load(state["shard_dir"])
            return sharding.sample_dual_stage_sharded(
                shard_set, state["config"], seed, workers=self.shard_workers
            )
        pool, graph = state["pool"], state["small"]
        model = build_gnn("grat", hidden_features=32, num_layers=3, rng=seed)
        trainer = DPGNNTrainer(
            model,
            pool,
            DPTrainingConfig(
                iterations=self.iterations,
                batch_size=state["batch"],
                learning_rate=self.learning_rate,
                clip_bound=1.0,
                sigma=state["sigma"],
                max_occurrences=THRESHOLD,
            ),
            seed + 1,
        )
        history = trainer.train()
        achieved = trainer.accountant.epsilon(state["delta"])
        seeds = seed_selection.select_top_k_seeds(model, graph, K)
        spread = spread_module.estimate_spread(graph, seeds)
        return {"history": history, "epsilon": achieved, "seeds": seeds, "spread": spread}

    def outcome(self, ctx: Context, state: dict, item: tuple[str, int], raw) -> dict:
        kind, _ = item
        if kind != "train":
            return _sampling_outcome(raw, state["graph"].num_nodes)
        return {
            "sigma": state["sigma"],
            "epsilon": raw["epsilon"],
            "target_epsilon": EPSILON,
            "delta": state["delta"],
            "steps": raw["history"].iterations,
            "batch": state["batch"],
            "num_subgraphs": len(state["pool"]),
            "bound": THRESHOLD,
            "max_occurrence": state["max_occurrence"],
            "losses": list(raw["history"].losses),
            "seeds": [int(s) for s in raw["seeds"]],
            "spread": float(raw["spread"]),
            "counts": {},
        }

    def problems(self, ctx: Context, state: dict, item: tuple[str, int], outcome: dict) -> list[str]:
        kind, seed = item
        if kind == "train":
            return _training_problems(outcome, self.iterations)
        problems = _sampling_problems(outcome)
        flat = state["flat"]
        if kind == "sample":
            flat.setdefault(seed, outcome["container"])
        else:
            if seed not in flat:  # the flat op on this seed failed: sample it here
                run = sampling.sample_dual_stage(state["graph"], state["config"], seed)
                flat[seed] = container_fingerprint(run.container)
            if outcome["container"] != flat[seed]:
                problems.append("container differs from the flat sampler's for the same seed")
        return problems


def output_digest(workload, item: tuple[str, int], outcome: dict) -> str:
    """Digest of the outcome values that must repeat for one input."""
    return digest({key: outcome[key] for key in workload.output_keys[item[0]]})


BATCH_WORKLOADS = {PipelineHepph.name: PipelineHepph}
