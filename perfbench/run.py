"""Benchmark of the PrivIM pipeline and its serving path.

    python3 perfbench/run.py --workload pipeline-hepph --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run from the repository root; the program is imported from ``src/``.
``--trace 0`` prints every end-to-end metric, ``--trace 1`` every
per-layer metric and the span profile.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import os  # noqa: E402

# One BLAS thread per process, set before numpy loads.  With OpenBLAS's
# default pool one forward pass on lastfm varied from 0.14 s to 0.43 s on a
# 2-vCPU machine, with one thread from 0.14 s to 0.20 s.  Children (shard
# workers, the server launcher) inherit the setting.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("pipeline-hepph", "serve-mutate")
END_TO_END = [
    ("setup_s", "s"),
    ("latency_scaled_ms", "ms"),
    ("cpu_scaled_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("ok_share", "share"),
]


def _import_program() -> float:
    """Put ``src/`` on the path and import the benchmark's modules; returns
    seconds since this process started (interpreter start excluded)."""
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        raise ImportError(f"no program to benchmark: {source}/repro is missing")
    sys.path.insert(0, source)
    import runner  # noqa: F401  (imports repro, numpy, scipy)
    import serve  # noqa: F401

    return time.perf_counter() - _STARTED


def run(workload: str, seed: int, seconds: float, trace: bool, *, scale=1.0, tamper=None):
    """One run of ``workload``; returns ``(report, environment)``."""
    import_seconds = _import_program()
    from common import environment
    from runner import run_batch
    from serve import run_serve
    from workloads import BATCH_WORKLOADS, Context

    temp_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(temp_root, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=temp_root)
    try:
        ctx = Context(seed, seconds, trace, scale, workdir, tamper)
        if workload == "serve-mutate":
            report = run_serve(ctx, import_seconds)
        else:
            report = run_batch(BATCH_WORKLOADS[workload](), ctx, import_seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(temp_root)
        except OSError:
            pass  # another run still uses it
    return report, environment()


def result_json(report, trace: bool) -> dict:
    from layers import PER_LAYER

    names = PER_LAYER if trace else END_TO_END
    source = report.layers if trace else report.metrics
    return {
        "correct": bool(report.correct),
        "attempted": int(report.attempted),
        "failed": int(report.failed),
        "metrics": {
            name: {"value": float(source[name]), "unit": unit} for name, unit in names
        },
    }


def _print_report(workload: str, report, env: dict, trace: bool) -> None:
    print(f"# perfbench {workload} seed={report.record['seed']} trace={int(trace)}")
    print("record " + json.dumps(dict(env, **report.record)))
    print(f"digest {report.digest}")
    for problem in report.problems:
        print(f"problem {problem}")
    for line in report.profile:
        print(f"profile {line}")
    result = result_json(report, trace)
    for name, metric in result["metrics"].items():
        print(f"{workload} {name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))


def _run_all(args) -> int:
    """Each workload in its own process, then one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        command = [
            sys.executable,
            os.path.abspath(__file__),
            "--workload",
            workload,
            "--seed",
            str(args.seed),
            "--seconds",
            str(args.seconds),
            "--trace",
            str(args.trace),
        ]
        completed = subprocess.run(command, capture_output=True, text=True, timeout=900)
        sys.stderr.write(completed.stderr)
        lines = completed.stdout.splitlines()
        if completed.returncode != 0 or not lines:
            print(f"# {workload} failed with exit code {completed.returncode}")
            return completed.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return _run_all(args)
    try:
        report, env = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    _print_report(args.workload, report, env, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
