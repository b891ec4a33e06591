"""The benchmark's own tests, at tiny dataset scales.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402

bench._import_program()

from tracer import Tracer, summarize  # noqa: E402

TINY = 0.03  # hepph: 360 nodes; lastfm: 228 nodes


def _run(workload, *, seed=5, trace=False, tamper=None, seconds=0.1):
    report, _ = bench.run(workload, seed, seconds, trace, scale=TINY, tamper=tamper)
    return report


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_workload_passes_its_checks(workload):
    report = _run(workload)
    assert report.problems == []
    assert report.correct and report.failed == 0 and report.attempted >= 16
    result = bench.result_json(report, trace=False)
    assert [name for name, _ in bench.END_TO_END] == list(result["metrics"])
    assert result["metrics"]["ok_share"]["value"] == 1.0
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_sharded_pool_differing_from_the_flat_one_fails_the_op():
    def tamper(outcome):
        if "exchange_rounds" in outcome["counts"]:
            outcome["container"] = "0" * 64

    report = _run("pipeline-hepph", tamper=tamper)
    sharded = [p for p in report.problems if "differs from the flat sampler's" in p]
    assert report.failed == len(sharded) > 0
    assert all("sharded" in problem for problem in sharded)


def test_occurrence_over_bound_fails_the_op_not_the_run():
    def tamper(outcome):
        if "bound" in outcome:
            outcome["max_occurrence"] = outcome["bound"] + 1

    report = _run("pipeline-hepph", tamper=tamper)
    assert report.attempted >= 16 and report.failed == report.attempted
    assert report.metrics["ok_share"] == 0.0 and not report.correct
    assert any("over the bound" in problem for problem in report.problems)


def test_output_differing_from_the_first_on_its_input_fails_the_op():
    seen = []

    def tamper(outcome):
        seen.append(outcome)
        if len(seen) == 2:  # the first timed op, on the warm-up's input
            outcome["container"] = "0" * 64

    report = _run("pipeline-hepph", tamper=tamper)
    assert report.failed == 1
    assert any("differ from the first op's" in problem for problem in report.problems)


def test_bad_response_fails_one_cycle():
    tampered = []

    def tamper(request):
        if not tampered and request.kind == "seeds":
            request.response = dict(request.response, seeds=request.response["seeds"][:-1])
            tampered.append(request)

    report = _run("serve-mutate", tamper=tamper)
    assert report.failed == 1
    assert report.metrics["ok_share"] == (report.attempted - 1) / report.attempted


def test_raising_warm_up_is_a_problem_not_a_crash(tmp_path):
    from runner import run_batch
    from workloads import Context, PipelineHepph

    class FailingWarmUp(PipelineHepph):
        calls = 0

        def op(self, ctx, state, item):
            self.calls += 1
            if self.calls == 1:
                raise RuntimeError("warm-up")
            return super().op(ctx, state, item)

    ctx = Context(5, 0.1, False, TINY, str(tmp_path))
    report = run_batch(FailingWarmUp(), ctx, import_seconds=0.0)
    assert "warm-up: raised" in report.problems and not report.correct
    assert report.attempted >= 16 and report.failed == 0


def test_broken_served_model_fails_every_request(monkeypatch):
    import serve

    monkeypatch.setattr(serve, "privacy_problems", lambda outcome: ["sigma is not positive"])
    report = _run("serve-mutate")
    assert report.attempted > 0 and report.failed == report.attempted
    assert report.metrics["ok_share"] == 0.0 and not report.correct


def test_exact_counts_repeat_across_runs_of_one_seed():
    first, second = (_run("pipeline-hepph", seed=9, trace=True) for _ in range(2))
    for name in ("sampling.walks_attempted", "sampling.subgraphs_emitted", "dp.epsilon_evals"):
        assert first.layers[name] == second.layers[name] > 0, name
    assert first.digest == second.digest
    served = [_run("serve-mutate", seed=9, trace=True) for _ in range(2)]
    assert served[0].layers["serving.forward_passes"] == served[1].layers["serving.forward_passes"] > 0
    assert served[0].digest == served[1].digest


def test_traced_run_reports_every_layer_metric():
    report = _run("pipeline-hepph", trace=True)
    result = bench.result_json(report, trace=True)
    from layers import PER_LAYER

    assert list(result["metrics"]) == [name for name, _ in PER_LAYER]
    for name in (
        "sampling.sample_ms",
        "sampling.walk_ms",
        "sharding.sample_ms",
        "sharding.build_ms",
        "dp.calibrate_ms",
        "core.train_ms",
        "core.select_ms",
        "im.spread_ms",
    ):
        assert report.layers[name] > 0, name
    assert 0.0 <= report.layers["trace.dark_share"] < 0.5


def test_tracer_restores_originals_and_computes_self_time():
    import repro.im.spread as spread
    from repro.core.trainer import DPGNNTrainer

    function, method = spread.estimate_spread, DPGNNTrainer.__dict__["train"]
    tracer = Tracer(
        [
            ("repro.im.spread", "estimate_spread", "im.spread"),
            ("repro.core.trainer", "DPGNNTrainer.train", "core.train"),
        ]
    )
    with tracer:
        assert spread.estimate_spread is not function
        with tracer.span("op"):
            with tracer.span("child"):
                pass
    assert spread.estimate_spread is function
    assert DPGNNTrainer.__dict__["train"] is method
    by_name = summarize(tracer.spans, root_name="op")["by_name"]
    op, child = by_name["op"], by_name["child"]
    assert op["self_s"] == pytest.approx(op["total_s"] - child["total_s"])


def test_fails_cleanly_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), tmp_path)
    command = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    completed = subprocess.run(
        command + ["--workload", "pipeline-hepph", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
