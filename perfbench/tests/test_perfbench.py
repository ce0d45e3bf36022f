"""Tests of the benchmark itself: seeded streams, metric names, and the
layer split each workload is designed to show.

Run from the root of a checkout: ``python3 -m pytest perfbench/tests -q``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import harness
import serveload
import streams
import sweep
import tracing
from repro.obs.tracer import TRACER

ROOT = harness.ROOT
RUN = os.path.join(ROOT, "perfbench", "run.py")


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [m["name"] for m in json.load(fh)[kind]]


def take(stream, n):
    return [next(stream) for _ in range(n)]


def run_command(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, RUN, *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


# ----------------------------------------------------------------------
# seeded inputs
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "make",
    [
        lambda seed: take(streams.warm_stream(seed), 48),
        lambda seed: take(streams.cold_stream(seed), 48),
        streams.sweep_sources,
        streams.warmup_requests,
    ],
    ids=["warm", "cold", "sweep", "warmup"],
)
def test_same_seed_same_inputs_other_seed_other_inputs(make):
    assert make(7) == make(7)
    assert make(7) != make(8)


def test_warm_stream_is_balanced_over_the_pool():
    pool = streams.warm_pool(3)
    span = len(streams.WARM_CYCLE) * len(pool)
    requests = [req for _, req in take(streams.warm_stream(3), span)]
    for source in pool:
        methods = sorted(
            (r["method"], r["params"].get("engine", ""))
            for r in requests
            if r["params"]["dsl"] == source
        )
        assert methods == sorted(streams.WARM_CYCLE)


def test_cold_stream_never_repeats_a_source_and_outgrows_the_interner():
    sources = [req["params"]["dsl"] for req in harness.inprocess_requests("serve-cold", 5)]
    assert len(set(sources)) == len(sources) > 64


def test_cold_family_rounds_hold_the_same_programs_for_every_seed():
    def first_round(seed):
        indices = range(3 * len(streams.COLD_ROUND) // 2)
        programs = [streams.cold_program(seed, i) for i in indices]
        return [(src.partition("\n")[2], labelled) for src, family, labelled in programs if family]

    assert len(first_round(7)) == len(streams.COLD_ROUND)
    assert sorted(first_round(7)) == sorted(first_round(8))
    assert first_round(7) != first_round(8)


def test_family_figures_do_not_depend_on_the_seed():
    def figures(seed):
        programs, family = sweep.setup(seed)
        rows = [sweep.sweep_row(p, harness.AnalysisCache()) for p, f in zip(programs, family) if f]
        return sweep.reproduction(rows)

    assert figures(1) == figures(2)


# ----------------------------------------------------------------------
# the layer split of each workload (traced, in-process)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [1, 2])
def test_serve_cold_runs_no_engine_verify_or_timing(seed):
    requests = [r for i in range(12) for r in streams.cold_requests(seed, i)]
    responses, _, summary = harness.dispatch_stream("serve-cold", seed, requests, traced=True)
    assert all("result" in r for r in responses)
    metrics = summary["metrics"]
    assert summary["engine_calls"] == 0
    idle = ("runtime.verify_ms", "runtime.engine_ms", "timing.baseline_ms", "timing.makespan_ms")
    assert all(metrics[name] == 0.0 for name in idle)
    assert metrics["serve.intern_hit_ratio"] == 0.0
    layers = summary["layers_ms"]
    handler = sum(layers.values())
    assert (layers.get("ir", 0) + layers.get("analysis", 0)) / handler > 0.5


@pytest.mark.parametrize("seed", [1, 2])
def test_serve_warm_hits_the_cache_and_verify_dominates_simulate(seed):
    requests = harness.inprocess_requests("serve-warm", seed)[:24]
    responses, _, summary = harness.dispatch_stream("serve-warm", seed, requests, traced=True)
    assert all(serveload.failure(q["method"], r) is None for q, r in zip(requests, responses))
    metrics = summary["metrics"]
    assert metrics["analysis.cache_hit_ratio"] > 0.99
    assert metrics["serve.intern_hit_ratio"] == 1.0
    assert metrics["ir.parse_ms"] == 0.0
    simulate = {
        k: v for k, v in summary["by_method"]["simulate"].items() if k not in ("total", "count")
    }
    assert max(simulate, key=simulate.get) == "runtime.verify"


def test_paper_sweep_records_every_attempt_protocol():
    programs, _ = sweep.setup(4)
    with tracing.instrument() as counters:
        rows, _, cache = harness.sweep_pass(programs, None)
        summary = tracing.summarize(TRACER.finished_spans(), counters, cache.stats())
    assert all(sweep.row_ok(row) for row in rows)
    attempts = summary["engine_attempts"]
    assert attempts["batched"] > 0
    assert attempts["fallback"] > 0
    assert attempts["interleaved"] > 0
    layers = summary["layers_ms"]
    assert (layers["runtime"] + layers["timing"]) / sum(layers.values()) > 0.5


def test_self_time_subtracts_child_coverage():
    from repro.obs.tracer import Span

    def span(i, parent, start, end):
        return Span("x", "t", i, parent, 0, "t", start, end)

    spans = [span(1, None, 0, 100), span(2, 1, 10, 40), span(3, 1, 30, 60), span(4, 2, 12, 20)]
    assert tracing.self_times(spans) == {1: 50, 2: 22, 3: 30, 4: 8}


# ----------------------------------------------------------------------
# the command
# ----------------------------------------------------------------------
@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_paper_sweep_prints_the_declared_metrics(trace, kind):
    proc = run_command(
        "--workload", "paper-sweep", "--seed", "3", "--seconds", "1", "--trace", trace
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == declared(kind)


def test_serve_warm_against_the_daemon():
    proc = run_command("--workload", "serve-warm", "--seed", "3", "--seconds", "2", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 20
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"),
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-warm", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
