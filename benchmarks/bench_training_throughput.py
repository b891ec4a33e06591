"""Training-throughput benchmark for the per-example gradient engine.

Measures DP-SGD iterations/sec on the default training config (GRAT
backbone at the paper's default width/depth, batch_size 8) across
``grad_mode`` x ``grad_workers`` and writes a ``BENCH_training.json`` summary, so the perf trajectory has a
training datapoint next to the sampling benches.

Every same-binary configuration must produce a **byte-identical loss
history** — the engine's core guarantee — and the script exits non-zero if
any pair diverges, which is what the CI smoke job (``--tiny --workers 1 2``)
asserts on every push.  The grid includes a paired in-memory-vs-store arm:
the same pool is written to an on-disk :class:`SubgraphStore` and trained
from there, and its loss history joins the identity assertion.

Three regression gates guard the recorded numbers:

* ``vectorized`` mode must be >= 1.5x the serial ``loop`` path (full mode),
  in the median of ``GATE_PAIRS`` alternating in-process CPU-time pairs
  (the JSON records every pair's ratio and their spread);
* ``--grad-workers 4`` must be >= 1.3x single-worker throughput — enforced
  only when the machine actually has >= 4 CPU cores, because persistent
  workers cannot beat serial execution on a single core no matter how the
  IPC is implemented.  The core count is recorded either way, so a reader
  of BENCH_training.json can tell an ungated number from a passing one;
* **store RSS flatness**: subprocess probes train from an on-disk store at
  a base pool size and at 10x that size; peak RSS (``ru_maxrss``) of the
  large-pool run must stay within 1.2x of the small-pool run.  The same
  probes run against in-memory pools (each record owning its bytes) so the
  JSON records the contrast the store exists to provide.

For a before/after number against an older engine, point
``--baseline-src`` at the ``src`` directory of a checkout of the pre-engine
commit::

    git worktree add /tmp/pre_engine <pre-engine-commit>
    PYTHONPATH=src python benchmarks/bench_training_throughput.py \
        --baseline-src /tmp/pre_engine/src

which times alternating baseline/current subprocess pairs on the same
workload with CPU time (``time.process_time``, immune to steal/frequency
noise) and reports the median per-pair ratio.

Unlike the pytest-benchmark suites this is a plain script: the CI job
needs its equality assertion and JSON artefact without a benchmark
storage round-trip.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from repro.core.trainer import DPGNNTrainer, DPTrainingConfig
from repro.gnn.models import build_gnn
from repro.graphs.generators import powerlaw_cluster_graph
from repro.sampling import DualStageSamplingConfig, sample_dual_stage
from repro.utils.rng import bench_seed


#: Alternating loop/vectorized pairs behind the vectorized/loop gate.  One
#: wall-clock run per mode read 1.26x and 1.30x on a shared 2-vCPU host
#: where the committed single-run figure was 1.502x; a median over pairs
#: timed with CPU time is a reading the host's noise cannot flip alone.
GATE_PAIRS = 7


def build_container(tiny: bool):
    if tiny:
        graph = powerlaw_cluster_graph(150, 3, 0.3, rng=bench_seed())
        config = DualStageSamplingConfig(
            subgraph_size=10, threshold=4, sampling_rate=0.8, walk_length=300
        )
    else:
        from repro.datasets.registry import load_dataset

        graph = load_dataset("lastfm", scale=0.1)
        # Default subgraph size (40); sampling_rate/walk_length raised so the
        # 10%-scale graph still yields a full container.
        config = DualStageSamplingConfig(
            subgraph_size=40, threshold=4, sampling_rate=0.8, walk_length=300
        )
    return sample_dual_stage(graph, config, bench_seed()).container


def make_training_config(
    iterations: int, container, workers: int | None, grad_mode: str | None = None
):
    """Build the default training config, portable across source trees.

    ``grad_workers`` and ``grad_mode`` only exist in the engine's config
    dataclass, so they are passed conditionally — baseline subprocesses
    construct the same config minus the fields.
    """
    kwargs = dict(
        iterations=iterations,
        batch_size=min(8, len(container)),
        sigma=1.0,
        max_occurrences=4,
    )
    if workers is not None:
        kwargs["grad_workers"] = workers
    if grad_mode is not None:
        kwargs["grad_mode"] = grad_mode
    return DPTrainingConfig(**kwargs)


def run_configuration(
    container,
    *,
    iterations,
    workers,
    model_kind,
    grad_mode=None,
    clock=time.perf_counter,
):
    """One timed training run; returns (iterations/sec, loss history).

    The grid arms time with wall clock: worker fan-out spends its cycles in
    child processes, which ``time.process_time`` cannot see.  The serial
    ``--time-only`` arms use CPU time instead, which is immune to steal and
    frequency drift.
    """
    model = build_gnn(model_kind, rng=bench_seed())
    config = make_training_config(iterations, container, workers, grad_mode)
    trainer = DPGNNTrainer(model, container, config, rng=bench_seed())
    try:
        start = clock()
        history = trainer.train()
        elapsed = clock() - start
    finally:
        trainer.close()
    return iterations / elapsed, tuple(history.losses)


def paired_mode_ratios(container, *, iterations, model_kind, pairs=GATE_PAIRS):
    """Vectorized/loop throughput ratios of ``pairs`` alternating runs.

    Both arms run serially in this process, timed with CPU time; the
    order alternates so drift over the pairs favours neither mode.
    """
    ratios = []
    for pair in range(pairs):
        order = ("loop", "vectorized") if pair % 2 == 0 else ("vectorized", "loop")
        rates = {}
        for grad_mode in order:
            rates[grad_mode], _ = run_configuration(
                container,
                iterations=iterations,
                workers=1,
                model_kind=model_kind,
                grad_mode=grad_mode,
                clock=time.process_time,
            )
        ratios.append(rates["vectorized"] / rates["loop"])
    return ratios


def _clone_subgraph(subgraph):
    """A deep copy whose CSR arrays own their bytes.

    The RSS probe's in-memory arm replicates a small sampled pool up to the
    target count; without the copy every replica would share the original's
    arrays and the pool would occupy no additional memory, hiding exactly
    the growth the store arm is contrasted against.
    """
    import numpy as np

    from repro.graphs.graph import Graph
    from repro.sampling.container import Subgraph

    graph = subgraph.graph
    clone = Graph.from_csr(
        graph.num_nodes,
        tuple(np.array(part, copy=True) for part in graph.out_csr()),
        tuple(np.array(part, copy=True) for part in graph.in_csr()),
        directed=graph.is_directed,
    )
    return Subgraph(clone, np.array(subgraph.node_map, copy=True))


def run_rss_probe(source: str, count: int, iterations: int, model_kind: str) -> int:
    """Subprocess body: train ``count`` subgraphs from ``source``, print peak RSS.

    The base pool is sampled once and replicated to ``count`` records.  The
    store arm streams replicas straight into the writer — never holding the
    pool in Python — because ``ru_maxrss`` is a high-water mark: building
    the pool in memory first would charge the store for the in-memory peak.
    """
    import resource
    import tempfile

    from repro.sampling.container import SubgraphContainer

    base = build_container(tiny=True)
    if source == "store":
        from repro.sampling.store import SubgraphStoreWriter

        with tempfile.TemporaryDirectory() as tmp:
            writer = SubgraphStoreWriter(os.path.join(tmp, "store"))
            for index in range(count):
                writer.add(base[index % len(base)])
            pool = writer.finalize()
            try:
                run_configuration(
                    pool,
                    iterations=iterations,
                    workers=1,
                    model_kind=model_kind,
                    grad_mode="vectorized",
                )
            finally:
                pool.close()
    else:
        pool = SubgraphContainer(
            [_clone_subgraph(base[index % len(base)]) for index in range(count)]
        )
        run_configuration(
            pool,
            iterations=iterations,
            workers=1,
            model_kind=model_kind,
            grad_mode="vectorized",
        )
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"PEAK_RSS_KB {peak_kb}")
    return 0


SHARDED_PROBE_SHARDS = 4
SHARDED_PROBE_CONFIG = dict(
    subgraph_size=8, threshold=3, sampling_rate=0.1, walk_length=60
)


def run_sharded_prep(directory: str, nodes: int) -> int:
    """Subprocess body: build the probe graph, shard it, persist the shard
    set.  Runs in its own interpreter so the probe process that follows
    never materialises the full graph — it opens the shard files cold."""
    from repro.sharding import build_shard_set

    graph = powerlaw_cluster_graph(nodes, 3, 0.3, rng=bench_seed())
    shard_set = build_shard_set(
        graph, SHARDED_PROBE_SHARDS, rng=bench_seed()
    )
    shard_set.save(directory)
    print(f"SHARDS_READY {graph.num_edges}")
    return 0


def run_sharded_probe(directory: str, iterations: int, model_kind: str) -> int:
    """Subprocess body: the full sharded path — open shard set from disk,
    sharded dual-stage sampling into one store, train from that store —
    then print this process's peak RSS."""
    import resource
    import tempfile

    from repro.sampling.dual_stage import DualStageSamplingConfig
    from repro.sampling.store import SubgraphStoreWriter
    from repro.sharding import ShardSet, sample_dual_stage_sharded

    shard_set = ShardSet.load(directory)
    config = DualStageSamplingConfig(**SHARDED_PROBE_CONFIG)
    with tempfile.TemporaryDirectory() as tmp:
        writer = SubgraphStoreWriter(os.path.join(tmp, "store"))
        sample_dual_stage_sharded(shard_set, config, rng=bench_seed(), sink=writer)
        pool = writer.finalize()
        try:
            num_subgraphs = len(pool)
            run_configuration(
                pool,
                iterations=iterations,
                workers=1,
                model_kind=model_kind,
                grad_mode="vectorized",
            )
        finally:
            pool.close()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"SUBGRAPHS {num_subgraphs}")
    print(f"PEAK_RSS_KB {peak_kb}")
    return 0


def sharded_probe_subprocess(
    directory: str, nodes: int, iterations: int, model: str
) -> tuple[int, int]:
    """Prep + probe subprocess pair; returns (peak KB, num subgraphs)."""
    common = [sys.executable, os.path.abspath(__file__), "--model", model]
    prep = subprocess.run(
        [*common, "--sharded-prep", directory, "--probe-nodes", str(nodes)],
        capture_output=True, text=True, check=False,
    )
    if "SHARDS_READY" not in prep.stdout:
        raise RuntimeError(
            f"sharded prep ({nodes} nodes) failed:\n{prep.stdout}\n{prep.stderr}"
        )
    probe = subprocess.run(
        [*common, "--sharded-probe", directory, "--iterations", str(iterations)],
        capture_output=True, text=True, check=False,
    )
    peak_kb = subgraphs = None
    for line in probe.stdout.splitlines():
        if line.startswith("PEAK_RSS_KB "):
            peak_kb = int(line.split()[1])
        if line.startswith("SUBGRAPHS "):
            subgraphs = int(line.split()[1])
    if peak_kb is None:
        raise RuntimeError(
            f"sharded probe ({nodes} nodes) produced no measurement:\n"
            f"{probe.stdout}\n{probe.stderr}"
        )
    return peak_kb, subgraphs


def rss_probe_subprocess(source: str, count: int, iterations: int, model: str) -> int:
    """Launch :func:`run_rss_probe` in a fresh interpreter; return peak KB."""
    result = subprocess.run(
        [
            sys.executable, os.path.abspath(__file__),
            "--rss-probe", source,
            "--probe-count", str(count),
            "--iterations", str(iterations),
            "--model", model,
        ],
        capture_output=True,
        text=True,
        check=False,
    )
    for line in result.stdout.splitlines():
        if line.startswith("PEAK_RSS_KB "):
            return int(line.split()[1])
    raise RuntimeError(
        f"RSS probe ({source}, {count}) produced no measurement:\n"
        f"{result.stdout}\n{result.stderr}"
    )


def timed_subprocess(src_path: str, argv: list[str]) -> float:
    """Run this script in ``--time-only`` mode against ``src_path``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(src_path)
    result = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--time-only", *argv],
        env=env,
        capture_output=True,
        text=True,
        check=False,
    )
    for line in result.stdout.splitlines():
        if line.startswith("IT_PER_SEC "):
            return float(line.split()[1])
    raise RuntimeError(
        f"time-only run against {src_path} produced no rate:\n"
        f"{result.stdout}\n{result.stderr}"
    )


def compare_with_baseline(baseline_src: str, *, tiny, iterations, model, pairs):
    """Alternating paired baseline/current runs; median per-pair ratio.

    Pairing adjacent runs and taking the median ratio cancels the slow
    drift in machine speed that makes one-shot throughput numbers on
    shared hardware meaningless.
    """
    current_src = os.path.join(os.path.dirname(__file__), "..", "src")
    argv = ["--iterations", str(iterations), "--model", model]
    if tiny:
        argv.append("--tiny")
    samples = []
    for pair in range(pairs):
        old_rate = timed_subprocess(baseline_src, argv)
        new_rate = timed_subprocess(current_src, argv)
        samples.append(
            {
                "baseline_it_per_sec": round(old_rate, 3),
                "current_it_per_sec": round(new_rate, 3),
                "ratio": round(new_rate / old_rate, 3),
            }
        )
        print(
            f"  pair {pair + 1}/{pairs}: baseline {old_rate:7.2f} it/s | "
            f"current {new_rate:7.2f} it/s | ratio {new_rate / old_rate:.2f}x"
        )
    median = statistics.median(sample["ratio"] for sample in samples)
    return {
        "baseline_src": os.path.abspath(baseline_src),
        "timing": "time.process_time, paired alternating subprocess runs",
        "pairs": samples,
        "median_speedup": round(median, 3),
    }


def merge_worker_gate(args, iterations: int) -> int:
    """Re-measure the ``--grad-workers 4`` scaling gate on this machine and
    merge it into an existing summary JSON.

    The committed BENCH_training.json is written on whatever machine runs
    the full bench; when that machine has fewer than 4 cores the worker
    gate is recorded unenforced.  CI calls this mode on a >= 4-core runner
    so the artifact it uploads carries an *enforced* measurement, without
    fabricating one on hardware that cannot produce it.
    """
    output = os.path.abspath(args.output)
    with open(output, encoding="utf-8") as handle:
        summary = json.load(handle)

    cpu_count = os.cpu_count() or 1
    container = build_container(args.tiny)
    print(
        f"merge-gates: {len(container)} subgraphs | {cpu_count} cores | "
        f"iterations={iterations}"
    )
    rates = {}
    for workers in (1, 4):
        rate, _ = run_configuration(
            container,
            iterations=iterations,
            workers=workers,
            model_kind=args.model,
            grad_mode="vectorized",
        )
        rates[workers] = rate
        print(f"  workers={workers} -> {rate:7.3f} it/s")
    ratio = rates[4] / rates[1]
    enforced = cpu_count >= 4
    gate = {
        "threshold": 1.3,
        "ratio": round(ratio, 3),
        "enforced": enforced,
        "passed": ratio >= 1.3,
        "remeasured_cpu_count": cpu_count,
    }
    if not enforced:
        gate["skip_reason"] = f"requires >= 4 CPU cores, machine has {cpu_count}"
    summary.setdefault("regression_gates", {})["workers4_vs_1"] = gate
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2)
        handle.write("\n")
    print(
        f"gate workers 4/1: {ratio:.2f}x (threshold 1.3x, "
        f"{'enforced' if enforced else 'not enforced'}, {cpu_count} cores)"
    )
    print(f"merged into {output}")
    if enforced and not gate["passed"]:
        print(
            f"REGRESSION GATE FAILED: --grad-workers 4 is only {ratio:.2f}x "
            "single-worker (< 1.3x)",
            file=sys.stderr,
        )
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tiny", action="store_true",
        help="small synthetic graph and few iterations (CI smoke mode)",
    )
    parser.add_argument(
        "--workers", type=int, nargs="+", default=[1, 2, 4],
        help="grad_workers values to sweep (default: 1 2 4)",
    )
    parser.add_argument(
        "--iterations", type=int, default=None,
        help="training iterations per configuration (default: 8 tiny, 20 full)",
    )
    parser.add_argument(
        "--model", default="grat", help="GNN backbone (default: grat)"
    )
    parser.add_argument(
        "--baseline-src", default=None,
        help="src directory of a pre-engine checkout for a paired before/after",
    )
    parser.add_argument(
        "--pairs", type=int, default=6,
        help="baseline/current timing pairs for --baseline-src (default: 6)",
    )
    parser.add_argument(
        "--time-only", action="store_true", help=argparse.SUPPRESS
    )
    parser.add_argument(
        "--rss-probe", choices=["memory", "store"], help=argparse.SUPPRESS
    )
    parser.add_argument(
        "--probe-count", type=int, default=None, help=argparse.SUPPRESS
    )
    parser.add_argument(
        "--sharded-prep", metavar="DIR", default=None, help=argparse.SUPPRESS
    )
    parser.add_argument(
        "--sharded-probe", metavar="DIR", default=None, help=argparse.SUPPRESS
    )
    parser.add_argument(
        "--probe-nodes", type=int, default=None, help=argparse.SUPPRESS
    )
    parser.add_argument(
        "--sharded-base", type=int, default=1200,
        help="base graph size for the sharded end-to-end probes "
             "(default: 1200; the large arm is 10x this)",
    )
    parser.add_argument(
        "--skip-sharded", action="store_true",
        help="skip the sharded sample->store->train end-to-end probes",
    )
    parser.add_argument(
        "--merge-gates", action="store_true",
        help="re-measure only the grad-worker scaling gate on this machine "
             "and merge the result into an existing --output JSON (for CI "
             "runners with more cores than the machine that wrote the file)",
    )
    parser.add_argument(
        "--rss-base", type=int, default=300,
        help="base pool size for the RSS flatness probes (default: 300; "
             "the large arm is 10x this)",
    )
    parser.add_argument(
        "--skip-rss", action="store_true",
        help="skip the peak-RSS flatness probes",
    )
    parser.add_argument(
        "--output",
        default=os.path.join(os.path.dirname(__file__), "..", "BENCH_training.json"),
        help="summary JSON path (default: repo-root BENCH_training.json)",
    )
    args = parser.parse_args(argv)
    iterations = args.iterations or (8 if args.tiny else 20)

    if args.rss_probe:
        return run_rss_probe(
            args.rss_probe, args.probe_count, iterations, args.model
        )

    if args.sharded_prep:
        return run_sharded_prep(args.sharded_prep, args.probe_nodes)

    if args.sharded_probe:
        return run_sharded_probe(args.sharded_probe, iterations, args.model)

    if args.merge_gates:
        return merge_worker_gate(args, iterations)

    if args.time_only:
        # Subprocess arm: serial defaults only, APIs common to both trees.
        container = build_container(args.tiny)
        rate, _ = run_configuration(
            container,
            iterations=iterations,
            workers=None,
            model_kind=args.model,
            clock=time.process_time,
        )
        print(f"IT_PER_SEC {rate:.6f}")
        return 0

    container = build_container(args.tiny)
    print(
        f"container: {len(container)} subgraphs | model={args.model} "
        f"batch=8 iterations={iterations} seed={bench_seed()}"
    )

    cpu_count = os.cpu_count() or 1
    runs = []
    # Grid: the loop row is the serial bit-identity oracle; the vectorized
    # rows sweep worker counts over the block-diagonal batch path.
    grid = [(1, "loop")] + [(workers, "vectorized") for workers in args.workers]
    for workers, grad_mode in grid:
        rate, losses = run_configuration(
            container,
            iterations=iterations,
            workers=workers,
            model_kind=args.model,
            grad_mode=grad_mode,
        )
        runs.append(
            {
                "source": "memory",
                "grad_mode": grad_mode,
                "grad_workers": workers,
                "iterations_per_sec": round(rate, 3),
                "losses": losses,
            }
        )
        print(f"  mode={grad_mode:10s} workers={workers} -> {rate:7.3f} it/s")

    # Paired in-memory-vs-store arm: the same pool, written to an on-disk
    # store and trained from there.  Its loss histories join the identity
    # assertion below — training from mmap-backed records must be
    # byte-identical to training from resident objects.
    import tempfile

    from repro.sampling.store import SubgraphStoreWriter

    with tempfile.TemporaryDirectory() as store_tmp:
        writer = SubgraphStoreWriter(os.path.join(store_tmp, "store"))
        for subgraph in container:
            writer.add(subgraph)
        store = writer.finalize()
        try:
            rate, losses = run_configuration(
                store,
                iterations=iterations,
                workers=1,
                model_kind=args.model,
                grad_mode="vectorized",
            )
            runs.append(
                {
                    "source": "store",
                    "grad_mode": "vectorized",
                    "grad_workers": 1,
                    "iterations_per_sec": round(rate, 3),
                    "losses": losses,
                }
            )
            print(f"  mode=vectorized workers=1 source=store -> {rate:7.3f} it/s")
        finally:
            store.close()

    reference = runs[0]["losses"]
    mismatched = [run for run in runs if run["losses"] != reference]
    if mismatched:
        for run in mismatched:
            print(
                f"LOSS-HISTORY MISMATCH: mode={run['grad_mode']} "
                f"workers={run['grad_workers']} source={run['source']}",
                file=sys.stderr,
            )
        return 1
    print("loss histories: byte-identical across all configurations")

    def rate_of(grad_mode, workers, source="memory"):
        for run in runs:
            if (
                run["source"] == source
                and run["grad_mode"] == grad_mode
                and run["grad_workers"] == workers
            ):
                return run["iterations_per_sec"]
        return None

    # ------------------------------------------------------------------ #
    # Regression gates (enforced in full mode; tiny runs are too noisy
    # and too short for a meaningful throughput ratio).
    # ------------------------------------------------------------------ #
    gates = {"cpu_count": cpu_count}
    failures = []

    if rate_of("loop", 1) and rate_of("vectorized", 1):
        ratios = paired_mode_ratios(
            container, iterations=iterations, model_kind=args.model
        )
        ratio = statistics.median(ratios)
        quartiles = statistics.quantiles(ratios, n=4)
        enforced = not args.tiny
        gate = {
            "threshold": 1.5,
            "ratio": round(ratio, 3),
            "timing": f"median of {len(ratios)} alternating CPU-time pairs",
            "pair_ratios": [round(value, 3) for value in ratios],
            "spread": {
                "min": round(min(ratios), 3),
                "q1": round(quartiles[0], 3),
                "q3": round(quartiles[2], 3),
                "max": round(max(ratios), 3),
            },
            "enforced": enforced,
            "passed": ratio >= 1.5,
        }
        gates["vectorized_vs_loop"] = gate
        print(
            f"gate vectorized/loop: {ratio:.2f}x over {len(ratios)} pairs "
            f"({min(ratios):.2f}-{max(ratios):.2f}x; threshold 1.5x)"
        )
        if enforced and not gate["passed"]:
            failures.append(f"vectorized mode is only {ratio:.2f}x the loop path (< 1.5x)")

    single_rate = rate_of("vectorized", 1)
    quad_rate = rate_of("vectorized", 4)
    if single_rate and quad_rate:
        ratio = quad_rate / single_rate
        # Persistent workers cannot beat one worker without spare cores —
        # on a single-core machine the honest number is < 1x and gating it
        # would just pin CI to the benchmark host's shape.
        enforced = not args.tiny and cpu_count >= 4
        gate = {
            "threshold": 1.3,
            "ratio": round(ratio, 3),
            "enforced": enforced,
            "passed": ratio >= 1.3,
        }
        if not enforced and cpu_count < 4:
            gate["skip_reason"] = f"requires >= 4 CPU cores, machine has {cpu_count}"
        gates["workers4_vs_1"] = gate
        print(
            f"gate workers 4/1: {ratio:.2f}x (threshold 1.3x, "
            f"{'enforced' if enforced else 'not enforced'}, {cpu_count} cores)"
        )
        if enforced and not gate["passed"]:
            failures.append(f"--grad-workers 4 is only {ratio:.2f}x single-worker (< 1.3x)")

    memory_rate = rate_of("vectorized", 1)
    store_rate = rate_of("vectorized", 1, source="store")
    if memory_rate and store_rate:
        print(
            f"store/memory throughput: {store_rate / memory_rate:.2f}x "
            "(informational; bit-identity is the gated property)"
        )

    # ------------------------------------------------------------------ #
    # Store RSS flatness: growing the pool 10x must not grow peak RSS
    # beyond 1.2x when training reads from the on-disk store.  Probes run
    # in fresh interpreters so ru_maxrss reflects only that workload.
    # ------------------------------------------------------------------ #
    if not args.skip_rss:
        base_count = args.rss_base
        large_count = base_count * 10
        probes = {}
        for source in ("memory", "store"):
            for count in (base_count, large_count):
                peak_kb = rss_probe_subprocess(source, count, 4, args.model)
                probes[(source, count)] = peak_kb
                print(f"  rss probe source={source:6s} pool={count:5d} -> {peak_kb} KB peak")
        store_ratio = probes[("store", large_count)] / probes[("store", base_count)]
        gate = {
            "pool_sizes": [base_count, large_count],
            "store_rss_kb": [
                probes[("store", base_count)], probes[("store", large_count)],
            ],
            "memory_rss_kb": [
                probes[("memory", base_count)], probes[("memory", large_count)],
            ],
            "threshold": 1.2,
            "ratio": round(store_ratio, 3),
            "enforced": True,
            "passed": store_ratio <= 1.2,
        }
        gates["store_rss_flatness"] = gate
        print(
            f"gate store RSS flatness: {store_ratio:.3f}x over a 10x pool "
            "(threshold 1.2x)"
        )
        if not gate["passed"]:
            failures.append(
                f"store peak RSS grew {store_ratio:.2f}x when the pool grew 10x (> 1.2x)"
            )

    # ------------------------------------------------------------------ #
    # Sharded end-to-end: partition -> sharded sample -> one store ->
    # train, at a base graph and a 10x graph.  The probe process opens the
    # shard set cold from disk (the full graph is built and thrown away in
    # a separate prep interpreter) and trains from the on-disk store, so
    # its peak RSS must grow far slower than the graph: the gate bounds
    # the 10x-graph probe at 2x the base probe.
    # ------------------------------------------------------------------ #
    sharded = None
    if not args.skip_sharded:
        import tempfile

        base_nodes = args.sharded_base
        large_nodes = base_nodes * 10
        measurements = {}
        for nodes in (base_nodes, large_nodes):
            with tempfile.TemporaryDirectory() as shard_tmp:
                peak_kb, num_subgraphs = sharded_probe_subprocess(
                    shard_tmp, nodes, 4, args.model
                )
            measurements[nodes] = (peak_kb, num_subgraphs)
            print(
                f"  sharded probe |V|={nodes:6d} shards={SHARDED_PROBE_SHARDS} "
                f"-> {num_subgraphs} subgraphs, {peak_kb} KB peak"
            )
        rss_ratio = measurements[large_nodes][0] / measurements[base_nodes][0]
        gate = {
            "graph_sizes": [base_nodes, large_nodes],
            "num_shards": SHARDED_PROBE_SHARDS,
            "rss_kb": [measurements[base_nodes][0], measurements[large_nodes][0]],
            "num_subgraphs": [
                measurements[base_nodes][1], measurements[large_nodes][1],
            ],
            "threshold": 2.0,
            "ratio": round(rss_ratio, 3),
            "enforced": True,
            "passed": rss_ratio <= 2.0,
        }
        gates["sharded_rss_bounded"] = gate
        sharded = {
            "pipeline": "partition -> sharded sample -> one store -> train "
                        "(probe opens shards cold from disk)",
            "sampling": SHARDED_PROBE_CONFIG,
            **gate,
        }
        print(
            f"gate sharded RSS bound: {rss_ratio:.3f}x over a 10x graph "
            "(threshold 2.0x)"
        )
        if not gate["passed"]:
            failures.append(
                f"sharded end-to-end peak RSS grew {rss_ratio:.2f}x when the "
                "graph grew 10x (> 2.0x)"
            )

    summary = {
        "benchmark": "training_throughput",
        "mode": "tiny" if args.tiny else "full",
        "model": args.model,
        "batch_size": 8,
        "iterations": iterations,
        "num_subgraphs": len(container),
        "seed": bench_seed(),
        "cpu_count": cpu_count,
        "timing": "time.perf_counter (wall clock; worker arms use subprocesses)",
        "configurations": [
            {key: value for key, value in run.items() if key != "losses"}
            for run in runs
        ],
        "loss_histories_identical": True,
        "regression_gates": gates,
    }
    if sharded is not None:
        summary["sharded"] = sharded

    if args.baseline_src:
        print(f"paired comparison vs {args.baseline_src}:")
        comparison = compare_with_baseline(
            args.baseline_src,
            tiny=args.tiny,
            iterations=iterations,
            model=args.model,
            pairs=args.pairs,
        )
        summary["pre_engine_comparison"] = comparison
        print(f"median speedup vs pre-engine baseline: {comparison['median_speedup']:.2f}x")

    output = os.path.abspath(args.output)
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2)
        handle.write("\n")
    print(f"wrote {output}")

    if failures:
        for failure in failures:
            print(f"REGRESSION GATE FAILED: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
