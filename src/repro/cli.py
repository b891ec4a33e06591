"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``train``      — fit a pipeline on a dataset, report privacy + utility,
  optionally save a checkpoint;
* ``seeds``      — load a checkpoint and print the top-k seed set;
* ``datasets``   — list the dataset registry (Table I);
* ``experiment`` — regenerate one of the paper's tables/figures;
* ``calibrate``  — print the noise multiplier for a privacy target;
* ``publish``    — train a model and publish it into a serving registry;
* ``serve``      — answer influence queries over HTTP from a published
  model (inference spends no additional privacy budget).
"""

from __future__ import annotations

import argparse
import signal
import sys

from repro.core.checkpoint import load_model, save_model
from repro.core.pipeline import PrivIM, PrivIMConfig, PrivIMStar
from repro.core.seed_selection import select_top_k_seeds
from repro.datasets.registry import DATASETS, load_dataset
from repro.dp.accountant import calibrate_sigma
from repro.experiments.harness import split_graph
from repro.im.celf import celf_coverage
from repro.im.metrics import coverage_ratio
from repro.im.spread import coverage_spread
from repro.obs import Observability, RunRecorder, configure_logging
from repro.utils.tables import format_table


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PrivIM: differentially private GNNs for influence maximization",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    train = commands.add_parser("train", help="train a private IM model")
    train.add_argument("--dataset", default="lastfm", choices=sorted(DATASETS))
    train.add_argument("--scale", type=float, default=0.1)
    train.add_argument("--epsilon", type=float, default=4.0,
                       help="privacy budget; <= 0 means non-private")
    train.add_argument("--method", default="privim-star",
                       choices=["privim-star", "privim-scs", "privim"])
    train.add_argument("--model", default="grat")
    train.add_argument("--subgraph-size", type=int, default=30)
    train.add_argument("--threshold", type=int, default=4)
    train.add_argument("--iterations", type=int, default=40)
    train.add_argument("--k", type=int, default=20)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--grad-workers", type=int, default=1,
                       help="gradient fan-out processes per training iteration "
                            "(1=serial, 0=one per CPU); results are "
                            "bit-identical for any value")
    train.add_argument("--grad-mode", choices=["loop", "vectorized"],
                       default="vectorized",
                       help="per-batch gradient strategy: one disjoint-union "
                            "pass (vectorized) or one pass per subgraph "
                            "(loop); results are bit-identical either way")
    train.add_argument("--save", help="model-only checkpoint path (.npz)")
    train.add_argument("--checkpoint",
                       help="crash-safe training-state checkpoint path; resume "
                            "with --resume is bit-identical to an uninterrupted run")
    train.add_argument("--checkpoint-every", type=int, default=None,
                       help="iterations between training checkpoints "
                            "(default 1 when --checkpoint is set)")
    train.add_argument("--resume", action="store_true",
                       help="restore --checkpoint before training if it exists")
    train.add_argument("--subgraph-store", metavar="DIR",
                       help="spill the sampled subgraph pool to this directory "
                            "as an mmap-backed on-disk store; training memory "
                            "stays flat in the pool size, results are "
                            "bit-identical to the in-memory pool")
    train.add_argument("--log-level", default=None,
                       choices=["debug", "info", "warning", "error"],
                       help="enable structured logging at this level "
                            "(library is silent by default)")
    train.add_argument("--log-json", action="store_true",
                       help="emit logs as JSON lines instead of human text "
                            "(implies --log-level info unless set)")
    train.add_argument("--run-record", metavar="PATH",
                       help="write a JSONL run record (spans, per-iteration "
                            "metrics, privacy-budget ledger) to PATH")

    seeds = commands.add_parser("seeds", help="select seeds with a checkpoint")
    seeds.add_argument("checkpoint")
    seeds.add_argument("--dataset", default="lastfm", choices=sorted(DATASETS))
    seeds.add_argument("--scale", type=float, default=0.1)
    seeds.add_argument("--k", type=int, default=20)

    commands.add_parser("datasets", help="list the dataset registry")

    experiment = commands.add_parser("experiment", help="regenerate a table/figure")
    experiment.add_argument(
        "name",
        choices=["table1", "table2", "table3", "fig5", "fig9", "fig13",
                 "indicator", "friendster"],
    )
    experiment.add_argument("--profile", default="quick",
                            choices=["smoke", "quick", "full"])
    experiment.add_argument("--dataset", default="lastfm")

    calibrate = commands.add_parser("calibrate", help="noise for a privacy target")
    calibrate.add_argument("--epsilon", type=float, required=True)
    calibrate.add_argument("--delta", type=float, default=1e-4)
    calibrate.add_argument("--steps", type=int, default=60)
    calibrate.add_argument("--batch-size", type=int, default=16)
    calibrate.add_argument("--num-subgraphs", type=int, default=300)
    calibrate.add_argument("--max-occurrences", type=int, default=4)

    publish = commands.add_parser(
        "publish", help="train a model and publish it into a serving registry"
    )
    publish.add_argument("--registry", required=True,
                         help="registry directory (created if missing)")
    publish.add_argument("--name", default="default",
                         help="model name inside the registry")
    publish.add_argument("--dataset", default="lastfm", choices=sorted(DATASETS))
    publish.add_argument("--scale", type=float, default=0.1)
    publish.add_argument("--epsilon", type=float, default=4.0,
                         help="privacy budget; <= 0 means non-private")
    publish.add_argument("--method", default="privim-star",
                         choices=["privim-star", "privim-scs", "privim"])
    publish.add_argument("--model", default="grat")
    publish.add_argument("--subgraph-size", type=int, default=30)
    publish.add_argument("--threshold", type=int, default=4)
    publish.add_argument("--iterations", type=int, default=40)
    publish.add_argument("--seed", type=int, default=0)
    publish.add_argument("--grad-workers", type=int, default=1)
    publish.add_argument("--subgraph-store", metavar="DIR",
                         help="spill the sampled pool to an on-disk store "
                              "(see train --subgraph-store)")
    publish.add_argument("--grad-mode", choices=["loop", "vectorized"],
                         default="vectorized")

    serve = commands.add_parser(
        "serve", help="serve influence queries from a published model"
    )
    serve.add_argument("--registry", required=True, help="registry directory")
    serve.add_argument("--name", default="default", help="model name to serve")
    serve.add_argument("--model-version", type=int, default=None,
                       help="version to serve (default: latest)")
    serve.add_argument("--dataset", default="lastfm", choices=sorted(DATASETS),
                       help="graph requests are answered on")
    serve.add_argument("--scale", type=float, default=0.1)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8099)
    serve.add_argument("--max-inflight", type=int, default=8,
                       help="concurrently executing requests")
    serve.add_argument("--queue-limit", type=int, default=32,
                       help="requests allowed to wait; beyond this -> 503")
    serve.add_argument("--replicas", type=int, default=1,
                       help="worker processes behind the port (1 = in-process; "
                            "more refuse live graph mutations with 409)")
    serve.add_argument("--deadline-ms", type=int, default=5000,
                       help="default per-request deadline")
    serve.add_argument("--log-level", default=None,
                       choices=["debug", "info", "warning", "error"])
    serve.add_argument("--log-json", action="store_true")

    audit = commands.add_parser("audit", help="membership-inference audit")
    audit.add_argument("--dataset", default="bitcoin", choices=sorted(DATASETS))
    audit.add_argument("--scale", type=float, default=0.04)
    audit.add_argument("--epsilon", type=float, default=4.0)
    audit.add_argument("--repeats", type=int, default=6)
    audit.add_argument("--iterations", type=int, default=8)
    audit.add_argument("--seed", type=int, default=0)
    return parser


def _build_observability(args: argparse.Namespace) -> Observability | None:
    """Observability bundle for ``--log-level`` / ``--log-json`` /
    ``--run-record``; ``None`` (zero overhead) when no flag is given."""
    wants_logs = args.log_level is not None or args.log_json
    if wants_logs:
        configure_logging(args.log_level or "info", json_lines=args.log_json)
    if not wants_logs and not args.run_record:
        return None
    recorder = RunRecorder(args.run_record) if args.run_record else None
    return Observability(recorder=recorder)


def _command_train(args: argparse.Namespace) -> int:
    if (args.resume or args.checkpoint_every is not None) and not args.checkpoint:
        print("--resume/--checkpoint-every require --checkpoint", file=sys.stderr)
        return 2
    graph = load_dataset(args.dataset, scale=args.scale)
    train_graph, test_graph = split_graph(graph, 0.5, rng=args.seed)
    checkpoint_every = args.checkpoint_every
    if args.checkpoint and checkpoint_every is None:
        checkpoint_every = 1
    config = PrivIMConfig(
        epsilon=args.epsilon if args.epsilon > 0 else None,
        model=args.model,
        subgraph_size=args.subgraph_size,
        threshold=args.threshold,
        iterations=args.iterations,
        grad_workers=args.grad_workers,
        grad_mode=args.grad_mode,
        checkpoint_every=checkpoint_every if args.checkpoint else None,
        checkpoint_path=args.checkpoint,
        resume=args.resume,
        subgraph_store=args.subgraph_store,
        rng=args.seed,
    )
    obs = _build_observability(args)
    if args.method == "privim":
        pipeline = PrivIM(config, obs=obs)
    else:
        pipeline = PrivIMStar(
            config, include_boundary=args.method == "privim-star", obs=obs
        )
    try:
        result = pipeline.fit(train_graph)

        k = min(args.k, test_graph.num_nodes)
        seeds = pipeline.select_seeds(test_graph, k)
        spread = coverage_spread(test_graph, seeds)
        _, celf_spread = celf_coverage(test_graph, k)
        if obs is not None:
            obs.event(
                "evaluation",
                k=k,
                spread=spread,
                celf_spread=celf_spread,
                coverage_ratio=coverage_ratio(spread, celf_spread),
                seeds=seeds,
            )
    finally:
        if obs is not None and obs.recorder is not None:
            obs.recorder.close()
    print(f"dataset        : {args.dataset} (|V|={graph.num_nodes})")
    print(f"method         : {pipeline.method_name}")
    print(f"subgraphs      : {result.num_subgraphs} (N_g={result.max_occurrences})")
    if result.sampling_stats is not None:
        stats = result.sampling_stats
        print(f"sampling       : {stats.walks_attempted} walks, "
              f"{stats.walks_rejected} cap-rejected "
              f"({100 * stats.cap_hit_rate:.1f}% cap-hit), "
              f"{stats.total_seconds:.2f}s")
    print(f"noise sigma    : {result.sigma:.4f}")
    print(f"achieved eps   : {result.epsilon:.4f} (delta={result.delta:.2e})")
    print(f"spread@k={k:<4} : {spread}  (CELF {celf_spread}, "
          f"ratio {coverage_ratio(spread, celf_spread):.1f}%)")
    if args.checkpoint:
        print(f"train ckpt     : {args.checkpoint}"
              f"{' (resumed)' if args.resume else ''}")
    if args.run_record:
        events = len(obs.recorder.events) if obs and obs.recorder else 0
        print(f"run record     : {args.run_record} ({events} events)")
    if args.save:
        save_model(pipeline.model, args.save)
        print(f"checkpoint     : {args.save}")
    return 0


def _command_seeds(args: argparse.Namespace) -> int:
    model = load_model(args.checkpoint)
    graph = load_dataset(args.dataset, scale=args.scale)
    k = min(args.k, graph.num_nodes)
    seeds = select_top_k_seeds(model, graph, k)
    print(" ".join(str(seed) for seed in seeds))
    return 0


def _command_datasets() -> int:
    rows = [
        [spec.name, spec.num_nodes, spec.num_edges,
         "directed" if spec.directed else "undirected", spec.avg_degree,
         spec.description]
        for spec in DATASETS.values()
    ]
    print(format_table(
        ["name", "|V|", "|E|", "type", "avg deg", "description"], rows
    ))
    return 0


def _command_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import (
        fig5,
        fig9,
        fig_indicator,
        friendster,
        param_study,
        table1,
        table2,
        table3,
    )

    if args.name == "table1":
        print(table1.run(args.profile).render())
    elif args.name == "table2":
        print(table2.run(args.profile).render())
    elif args.name == "table3":
        print(table3.run(args.profile).render())
    elif args.name == "fig5":
        print(fig5.run_dataset(args.dataset, args.profile).render())
    elif args.name == "fig9":
        print(fig9.run(args.profile).render())
    elif args.name == "fig13":
        print(param_study.run_theta_study(args.dataset, args.profile).render())
    elif args.name == "indicator":
        print(fig_indicator.run_m_sweep(args.dataset, args.profile).render())
    else:
        print(friendster.run(args.profile).render())
    return 0


def _command_calibrate(args: argparse.Namespace) -> int:
    sigma = calibrate_sigma(
        args.epsilon,
        args.delta,
        steps=args.steps,
        batch_size=args.batch_size,
        num_subgraphs=args.num_subgraphs,
        max_occurrences=args.max_occurrences,
    )
    print(f"sigma = {sigma:.6f}")
    return 0


def _build_pipeline(args: argparse.Namespace):
    """The pipeline the ``publish`` command trains (mirrors ``train``)."""
    config = PrivIMConfig(
        epsilon=args.epsilon if args.epsilon > 0 else None,
        model=args.model,
        subgraph_size=args.subgraph_size,
        threshold=args.threshold,
        iterations=args.iterations,
        grad_workers=args.grad_workers,
        grad_mode=args.grad_mode,
        subgraph_store=args.subgraph_store,
        rng=args.seed,
    )
    if args.method == "privim":
        return PrivIM(config)
    return PrivIMStar(config, include_boundary=args.method == "privim-star")


def _command_publish(args: argparse.Namespace) -> int:
    from repro.serving import ModelRegistry

    graph = load_dataset(args.dataset, scale=args.scale)
    train_graph, _ = split_graph(graph, 0.5, rng=args.seed)
    pipeline = _build_pipeline(args)
    result = pipeline.fit(train_graph)
    registry = ModelRegistry(args.registry)
    version = registry.publish(
        result.build_artifact(dataset=args.dataset, scale=args.scale, seed=args.seed),
        name=args.name,
    )
    print(f"registry       : {args.registry}")
    print(f"published      : {args.name} v{version}")
    print(f"method         : {pipeline.method_name}")
    print(f"achieved eps   : {result.epsilon:.4f} (delta={result.delta:.2e})")
    print(f"artifact       : {registry.artifact_path(args.name, version)}")
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    from repro.serving import InfluenceService, ModelRegistry, ServiceConfig
    from repro.serving.http import make_server
    from repro.serving.replica import ReplicaConfig, ReplicaSet

    if args.log_level is not None or args.log_json:
        configure_logging(args.log_level or "info", json_lines=args.log_json)
    registry = ModelRegistry(args.registry)
    version = args.model_version
    if version is None:
        version = registry.latest(args.name)
    artifact = registry.load(args.name, version)
    graph = load_dataset(args.dataset, scale=args.scale)
    service_config = ServiceConfig(
        max_inflight=args.max_inflight,
        queue_limit=args.queue_limit,
        default_deadline=args.deadline_ms / 1000.0,
    )

    def build_service() -> InfluenceService:
        return InfluenceService(
            artifact,
            graph,
            model_name=args.name,
            model_version=version,
            config=service_config,
        )

    privacy = artifact.privacy
    eps = "inf" if privacy.epsilon == float("inf") else f"{privacy.epsilon:.4f}"
    print(f"serving        : {args.name} v{version} ({artifact.method})")
    print(f"privacy        : eps={eps} delta={privacy.delta:.2e} "
          "(inference spends no additional budget)")
    print(f"graph          : {args.dataset} (|V|={graph.num_nodes})")

    def _request_shutdown(signum, frame):
        # Disarm before raising: a second SIGTERM while the drain is in
        # progress would otherwise raise *inside* the cleanup and abort
        # it half way (workers reaped but no clean-exit report).
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        raise KeyboardInterrupt

    # SIGTERM drains like Ctrl-C — background jobs in non-interactive
    # shells (CI) inherit SIGINT ignored, so plain `kill` must also work.
    signal.signal(signal.SIGTERM, _request_shutdown)

    if args.replicas > 1:
        replica_set = ReplicaSet(
            lambda: (build_service(), registry),
            ReplicaConfig(
                replicas=args.replicas, host=args.host, port=args.port
            ),
        )
        replica_set.start()
        print(f"replicas       : {args.replicas} ({replica_set.mode})")
        print(f"listening      : {replica_set.url}", flush=True)
        try:
            while True:
                signal.pause()
        except KeyboardInterrupt:
            pass
        finally:
            replica_set.stop()
            print("shutdown       : clean")
        return 0

    server = make_server(
        build_service(), host=args.host, port=args.port, registry=registry
    )
    host, port = server.server_address[:2]
    print(f"listening      : http://{host}:{port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown_gracefully()
        server.server_close()
        print("shutdown       : clean")
    return 0


def _command_audit(args: argparse.Namespace) -> int:
    from repro.dp.audit import audit_node_membership

    graph = load_dataset(args.dataset, scale=args.scale)

    def train_fn(target_graph, seed):
        pipeline = PrivIMStar(
            PrivIMConfig(
                epsilon=args.epsilon,
                subgraph_size=12,
                threshold=4,
                iterations=args.iterations,
                batch_size=6,
                sampling_rate=0.6,
                hidden_features=8,
                num_layers=2,
                rng=seed,
            )
        )
        pipeline.fit(target_graph)
        return pipeline

    result = audit_node_membership(
        train_fn,
        graph,
        epsilon=args.epsilon,
        delta=1.0 / (2 * graph.num_nodes),
        repeats=args.repeats,
        rng=args.seed,
    )
    print(f"target node      : {result.target_node}")
    print(f"attack advantage : {result.attack_advantage:.3f} "
          f"(+/- {result.sampling_error:.3f} sampling error)")
    print(f"DP bound         : {result.dp_advantage_bound:.3f}")
    print(f"verdict          : {'OK' if result.respects_bound else 'VIOLATION'}")
    return 0 if result.respects_bound else 1


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "train":
        return _command_train(args)
    if args.command == "seeds":
        return _command_seeds(args)
    if args.command == "datasets":
        return _command_datasets()
    if args.command == "experiment":
        return _command_experiment(args)
    if args.command == "audit":
        return _command_audit(args)
    if args.command == "publish":
        return _command_publish(args)
    if args.command == "serve":
        return _command_serve(args)
    return _command_calibrate(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
