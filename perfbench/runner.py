"""The closed-loop runner of the batch workloads.

A run: ``SETUP_REPEATS`` set-ups (the median counts), one warm-up op,
then timed ops, round-robin over the workload's inputs (``(kind, seed)``
pairs drawn from the workload seed), until ``--seconds`` have passed (at
least ``MIN_ROUNDS`` rounds).  Every op on one input does identical work,
and its outputs must equal the first op's on that input.  Checks run
after each op's timing window, so they cost the metrics nothing.

The time metrics are built from the *fastest* repeat of each input: the
mean over a kind's inputs, summed over the kinds (see
:func:`common.fastest`), then scaled by the host's speed in the run (see
:class:`common.HostSpeed`, sampled after every op).  On a shared host,
contention from other tenants only ever adds time: the fastest of several
repeats spread across the run is what the op costs when the host leaves
it alone, and the scale takes out slowdowns that last the whole run.

With ``--trace 1`` odd-numbered rounds run with the layer wrappers
installed and even-numbered rounds without; per-layer times come from the
traced ops, and the traced/untraced ratio is the trace overhead.
"""

from __future__ import annotations

import gc
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field

from common import (
    HostSpeed,
    cpu_seconds,
    cpu_ticks,
    digest,
    fastest,
    median,
    peak_rss_mb,
    spread_summary,
    steal_share,
)
from layers import CLIENT_TARGETS, batch_layers
from tracer import Tracer, format_tree, summarize
from workloads import Context, output_digest

SETUP_REPEATS = 3
MIN_ROUNDS = 2
MAX_OPS = 20000


@dataclass
class Report:
    """Everything one run prints."""

    metrics: dict
    layers: dict
    attempted: int
    failed: int
    correct: bool
    record: dict
    digest: str
    profile: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)


def _timed(workload, ctx: Context, state: dict, index: int, tracer=None):
    """(raw result or None, seconds, CPU seconds) of one op; an op that
    raises returns None and its traceback goes to stderr."""
    cpu_before = cpu_seconds()
    started = time.perf_counter()
    try:
        with tracer if tracer is not None else nullcontext():
            with tracer.span("op") if tracer is not None else nullcontext():
                raw = workload.op(ctx, state, index)
    except Exception:  # noqa: BLE001 - a failing op is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        raw = None
    return raw, time.perf_counter() - started, cpu_seconds() - cpu_before


def _checked(workload, ctx: Context, state: dict, index: int, raw):
    """(outcome, problems) of one op; a check that raises is a problem."""
    try:
        outcome = workload.outcome(ctx, state, index, raw)
        if ctx.tamper is not None:
            ctx.tamper(outcome)
        return outcome, workload.problems(ctx, state, index, outcome)
    except Exception as error:  # noqa: BLE001 - a broken output fails the op
        traceback.print_exc(file=sys.stderr)
        return None, [f"check raised {type(error).__name__}: {error}"]


def repeated_setup(build, ctx: Context, tracer: Tracer) -> tuple[object, list[float]]:
    """Run ``build(ctx)`` ``SETUP_REPEATS`` times (traced under a ``setup``
    span when ``ctx.trace``); returns the last state and every build's
    seconds, whose median counts in ``setup_s``."""
    builds, state = [], None
    for _ in range(SETUP_REPEATS):
        # Release the previous set-up, cycles included, before building the
        # next, so peak RSS does not depend on when the collector last ran.
        state = None
        gc.collect()
        started = time.perf_counter()
        with tracer if ctx.trace else nullcontext(), tracer.span("setup"):
            state = build(ctx)
        builds.append(time.perf_counter() - started)
    return state, builds


def run_batch(workload, ctx: Context, import_seconds: float) -> Report:
    tracer = Tracer(CLIENT_TARGETS)
    inputs = workload.inputs(ctx)
    kinds = {position: kind for position, (kind, _) in enumerate(inputs)}
    state, builds = repeated_setup(workload.build, ctx, tracer)

    # The warm-up op is not attempted: its problems only make the run
    # incorrect.  The first output on each input is what every later op on
    # it must reproduce.
    problems: list[str] = []
    expected: dict[int, str] = {}
    exact_counts: dict[int, dict] = {}
    raw, warmup_seconds, _ = _timed(workload, ctx, state, inputs[0])
    if raw is None:
        problems.append("warm-up: raised")
    else:
        outcome, warm_problems = _checked(workload, ctx, state, inputs[0], raw)
        problems += [f"warm-up: {problem}" for problem in warm_problems]
        if outcome is not None:
            expected[0] = output_digest(workload, inputs[0], outcome)
            exact_counts[0] = outcome["counts"]
    setup_seconds = import_seconds + median(builds) + warmup_seconds

    latency = {position: [] for position in kinds}
    cpu = {position: [] for position in kinds}
    traced_latency = {position: [] for position in kinds}
    counts: dict[str, list] = {}
    attempted = failed = 0
    host = HostSpeed()
    ticks = cpu_ticks()
    started = time.perf_counter()
    while (
        time.perf_counter() - started < ctx.seconds or attempted < MIN_ROUNDS * len(inputs)
    ) and attempted < MAX_OPS:
        position = attempted % len(inputs)
        item = inputs[position]
        traced = ctx.trace and (attempted // len(inputs)) % 2 == 1
        attempted += 1
        raw, elapsed, op_cpu = _timed(workload, ctx, state, item, tracer if traced else None)
        host.sample()
        if raw is None:
            failed += 1
            problems.append(f"op {attempted} ({item[0]} {item[1]}): raised")
            continue
        outcome, op_problems = _checked(workload, ctx, state, item, raw)
        if outcome is not None:
            output = output_digest(workload, item, outcome)
            if expected.setdefault(position, output) != output:
                op_problems.append("outputs differ from the first op's on the same input")
            exact_counts.setdefault(position, outcome["counts"])
            counts.setdefault(item[0], []).append(outcome["counts"])
        if op_problems:
            failed += 1
            problems += [f"op {attempted} ({item[0]} {item[1]}): {p}" for p in op_problems]
            continue
        if traced:
            traced_latency[position].append(elapsed)
        else:
            latency[position].append(elapsed)
            cpu[position].append(op_cpu)
    measured = time.perf_counter() - started
    steal = steal_share(ticks, cpu_ticks())

    metrics = {
        "setup_s": setup_seconds * host.scale(),
        "latency_scaled_ms": 1000.0 * fastest(latency, kinds) * host.scale(),
        "cpu_scaled_ms": 1000.0 * fastest(cpu, kinds) * host.cpu_scale(),
        "peak_rss_mb": peak_rss_mb(),
        "ok_share": (attempted - failed) / attempted,
    }

    layers, profile = {}, []
    if ctx.trace:
        op_summary = summarize(tracer.spans, root_name="op")
        setup_summary = summarize(tracer.spans, root_name="setup")
        traced_ops = {}
        for position, values in traced_latency.items():
            traced_ops[kinds[position]] = traced_ops.get(kinds[position], 0) + len(values)
        first_counts: dict[str, list] = {}
        for position in sorted(exact_counts):
            first_counts.setdefault(kinds[position], []).append(exact_counts[position])
        op_entry = op_summary["by_name"].get("op", {"self_s": 0.0, "total_s": 1.0})
        untraced_fastest = fastest(latency, kinds)
        layers = batch_layers(
            op_summary["by_name"],
            setup_summary["by_name"],
            traced_ops,
            counts,
            first_counts,
            dark_share=op_entry["self_s"] / op_entry["total_s"],
            overhead_share=(
                fastest(traced_latency, kinds) / untraced_fastest - 1.0
                if untraced_fastest
                else 0.0
            ),
        )
        profile = format_tree(setup_summary["tree"], SETUP_REPEATS) + format_tree(
            op_summary["tree"], max(sum(traced_ops.values()), 1)
        )

    by_kind = {}
    for kind in dict.fromkeys(kinds.values()):
        mine = {p: v for p, v in latency.items() if kinds[p] == kind}
        mins = [min(v) for v in mine.values() if v]
        by_kind[kind] = dict(
            spread_summary(mine),
            inputs=len(mine),
            fastest_ms=1000.0 * sum(mins) / len(mins) if mins else None,
        )
    transports = sorted(
        {c["transport"] for values in counts.values() for c in values if "transport" in c}
    )
    record = {
        "workload": workload.name,
        "seed": ctx.seed,
        "inputs": inputs,
        "seconds": ctx.seconds,
        "measured_s": measured,
        "trace": ctx.trace,
        "ops_per_run": attempted,
        "setup_repeats": SETUP_REPEATS,
        "setup_build_s": builds,
        "warmup_s": warmup_seconds,
        "import_s": import_seconds,
        "setup_unscaled_s": setup_seconds,
        "latency_min_ms": 1000.0 * fastest(latency, kinds),
        "cpu_min_ms": 1000.0 * fastest(cpu, kinds),
        "host_speed": host.record(),
        "latency_by_kind": by_kind,
        "shard_transport": ",".join(transports) or "none",
        "steal_share": steal,
        "trace_targets_missing": sorted(".".join(t) for t in tracer.missing),
    }
    return Report(
        metrics=metrics,
        layers=layers,
        attempted=attempted,
        failed=failed,
        correct=not problems,
        record=record,
        digest=digest([expected.get(position, "none") for position in kinds]),
        profile=profile,
        problems=problems,
    )
