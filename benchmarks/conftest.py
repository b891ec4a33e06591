"""Shared machinery for the benchmark suite.

Every bench regenerates one of the paper's tables or figures at the profile
selected by the ``REPRO_BENCH_PROFILE`` environment variable (default
``quick``; set ``smoke`` for a fast validation pass, ``full`` for the
largest practical scale).  Each experiment runs exactly once inside
``benchmark.pedantic`` — the timing pytest-benchmark reports is the cost of
regenerating that artefact — and the regenerated rows/series are printed so
the run log doubles as the reproduction record.

All benchmark randomness is seeded through :func:`repro.utils.rng.bench_seed`
(override with ``REPRO_BENCH_SEED``); the seed is recorded in every result
artefact and in pytest-benchmark's ``extra_info``.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.profiles import get_profile
from repro.obs.record import summarize_run_record
from repro.utils.rng import bench_seed


@pytest.fixture
def record_run_summary(benchmark):
    """Fold an observability run record into pytest-benchmark ``extra_info``.

    The fixture is a callable taking a list of run-record event dicts
    (e.g. a ``RunRecorder.events`` buffer or
    :func:`repro.obs.record.read_run_record` output).  The per-span wall
    times, event counts, and final ε land next to the timing statistics in
    the benchmark JSON, so a saved benchmark run carries its own
    budget/timing trace.  Returns the summary dict.
    """

    def _record(events) -> dict:
        summary = summarize_run_record(events)
        benchmark.extra_info["run_events"] = summary["events"]
        benchmark.extra_info["event_counts"] = summary["counts"]
        benchmark.extra_info["span_seconds"] = {
            name: round(seconds, 4)
            for name, seconds in summary["span_seconds"].items()
        }
        if summary["final_epsilon"] is not None:
            benchmark.extra_info["final_epsilon"] = round(
                summary["final_epsilon"], 6
            )
        return summary

    return _record

_PROFILE_NAME = os.environ.get("REPRO_BENCH_PROFILE", "quick")


@pytest.fixture(scope="session")
def profile():
    """The benchmark scale profile."""
    return get_profile(_PROFILE_NAME)


_RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results", _PROFILE_NAME)


@pytest.fixture
def regen(benchmark, request):
    """Run an experiment once under the benchmark timer and record it.

    The rendered rows/series are printed (visible with ``-s``) *and*
    written to ``benchmarks/results/<profile>/<bench>.txt`` so the
    regenerated artefacts survive pytest's output capture.  Returns the
    experiment's report (or list of reports) so the bench can assert on
    its shape.
    """

    def _run(fn, *args, **kwargs):
        result = benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
        benchmark.extra_info["seed"] = bench_seed()
        reports = result if isinstance(result, list) else [result]
        rendered = "\n\n".join(report.render() for report in reports)
        header = f"# profile={_PROFILE_NAME} seed={bench_seed()}"
        print()
        print(rendered)
        os.makedirs(_RESULTS_DIR, exist_ok=True)
        artefact = os.path.join(_RESULTS_DIR, f"{request.node.name}.txt")
        with open(artefact, "w", encoding="utf-8") as handle:
            handle.write(header + "\n" + rendered + "\n")
        return result

    return _run
