"""The three workloads, end to end (tracing off) and traced.

:func:`run` measures one workload and returns the object ``run.py``
prints.  Failures are counted per operation and never retried; an output
that disagrees with its reference (the sequential interpreter, a fresh
in-process labelling, the untraced run) also makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from itertools import islice
from typing import Dict, List, Optional, Tuple

from repro.analysis.cache import AnalysisCache
from repro.obs.metrics import metrics_registry
from repro.obs.tracer import TRACER
from repro.serve import protocol
from repro.serve.dispatch import Dispatcher
from repro.serve.protocol import Request

import serveload
import streams
import sweep
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Set-ups per run; ``setup_s`` is their median.
SPAWNS = 5
#: An untraced serve-cold run checks the analyze/label replies of the
#: first programs of its stream against in-process labelling; a traced
#: run checks every reply.
CHECK_HEAD = 48
#: Completed requests per ``sweep_s`` block on the serve workloads.
BLOCK = 50
#: Table passes per ``paper-sweep`` run at least, however short the run.
MIN_PASSES = 3
#: Requests a traced serve run dispatches in-process, per pass.
TRACE_WARM_REQUESTS = 96
TRACE_COLD_PROGRAMS = 90
#: Where traced runs write their spans, inside the checkout.
TRACE_DIR = os.path.join(ROOT, ".perfbench")


def log(message: str) -> None:
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile; a failed operation is
    ``inf``, so it misses every latency limit."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo, hi = math.floor(pos), math.ceil(pos)
    if ordered[hi] == math.inf:
        return math.inf
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class Outcome:
    """Operations attempted and failed, and wrong outputs, in one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def count(self, reason: Optional[str], wrong: bool = False) -> bool:
        """Count one operation that failed for ``reason`` (or succeeded)."""
        self.attempted += 1
        if reason is None:
            return True
        self.failed += 1
        self.wrong += wrong
        log(f"failed: {reason}")
        return False

    def count_reply(self, method: str, response: Optional[Dict]) -> bool:
        reason = serveload.failure(method, response)
        # An error envelope or a lost reply is a failure; a reply whose
        # verdict is not bit-identical is also a wrong output.
        wrong = reason is not None and response is not None and "error" not in response
        return self.count(reason, wrong)

    def mismatch(self, reason: str) -> None:
        """A wrong output of an operation already counted."""
        self.wrong += 1
        log(f"wrong: {reason}")


class LabelChecker:
    """Compares ``analyze``/``label`` replies with in-process labelling."""

    def __init__(self, outcome: Outcome):
        self.outcome = outcome
        self._expected: Dict[str, List[Dict]] = {}

    def __call__(self, request: Dict, result: Dict) -> None:
        method = request["method"]
        if method not in ("analyze", "label"):
            return
        source = request["params"]["dsl"]
        if source not in self._expected:
            self._expected[source] = serveload.expected_labels(source)
        reason = serveload.label_mismatch(method, result, self._expected[source])
        if reason:
            self.outcome.mismatch(reason)


# ----------------------------------------------------------------------
# serve workloads
# ----------------------------------------------------------------------
def client_stream(workload: str, seed: int):
    if workload == "serve-warm":
        return streams.warm_stream(seed)
    return streams.cold_stream(seed)


def drive_daemon(workload: str, seed: int, seconds: float, spawns: int):
    """Spawn the daemon, warm it (serve-warm), run the client, stop it."""
    daemon, setups = serveload.spawn_measured(ROOT, spawns)
    try:
        warmup = []
        if workload == "serve-warm":
            conn = serveload.Connection(daemon.port)
            try:
                for req in streams.warmup_requests(seed):
                    latency, reply = conn.call(req["method"], req["params"])
                    warmup.append(serveload.Record(-1, req, 0.0, latency, reply))
            finally:
                conn.close()
        records, window = serveload.closed_loop(
            daemon.port, client_stream(workload, seed), seconds
        )
        rss = daemon.peak_rss_mb()
    finally:
        daemon.stop()
    log(f"{len(records)} requests in {window:.2f} s; daemon set-ups {setups}")
    return setups, warmup, records, window, rss


def check_records(records, outcome: Outcome, checker: LabelChecker, head_only: bool):
    """Count every record; label-check the successful ones (with
    ``head_only``, only those of stream index below :data:`CHECK_HEAD`)."""
    ok = []
    for record in records:
        if outcome.count_reply(record.method, record.response):
            ok.append(record)
            if not head_only or record.index < CHECK_HEAD:
                checker(record.request, record.response["result"])
    return ok


def family_figures(seed: int, outcome: Outcome) -> Dict[str, float]:
    """The reproduction figures of the family table, computed in-process
    and untimed, for the workloads whose own work does not produce them."""
    programs, family = sweep.setup(seed)
    rows = []
    for program in [p for p, f in zip(programs, family) if f]:
        row = sweep.sweep_row(program, AnalysisCache())
        if outcome.count(None if sweep.row_ok(row) else f"{row['program']} diverged", True):
            rows.append(row)
    return sweep.reproduction(rows)


def serve_end_to_end(workload: str, seed: int, seconds: float) -> Tuple[Outcome, Dict]:
    outcome = Outcome()
    setups, warmup, records, window, rss = drive_daemon(workload, seed, seconds, SPAWNS)
    checker = LabelChecker(outcome)
    check_records(warmup, outcome, checker, head_only=False)
    ok = check_records(records, outcome, checker, head_only=workload == "serve-cold")
    good = set(map(id, ok))
    latencies = [r.latency_ms if id(r) in good else math.inf for r in records]
    start = min(r.sent for r in records)
    edges = [start] + sorted(r.sent + r.latency_ms / 1e3 for r in records)
    blocks = [edges[i + BLOCK] - edges[i] for i in range(0, len(edges) - BLOCK, BLOCK)]
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_rps": len(ok) / window,
        "latency_p50_ms": percentile(latencies, 50),
        "latency_p95_ms": percentile(latencies, 95),
        "peak_rss_mb": rss,
        "sweep_s": statistics.median(blocks) if blocks else window,
        **family_figures(seed, outcome),
    }
    return outcome, metrics


def inprocess_requests(workload: str, seed: int) -> List[Dict]:
    """The fixed stream a traced serve run dispatches in-process: the
    head of the client's stream."""
    if workload == "serve-warm":
        return [req for _, req in islice(streams.warm_stream(seed), TRACE_WARM_REQUESTS)]
    return [req for i in range(TRACE_COLD_PROGRAMS) for req in streams.cold_requests(seed, i)]


def dispatch_stream(workload: str, seed: int, requests: List[Dict], traced: bool):
    """Dispatch ``requests`` in one thread on a fresh dispatcher, as the
    daemon's workers do, and encode each response as its transport does.

    Returns (responses without ``meta``, wall seconds, trace summary or
    None).
    """
    dispatcher = Dispatcher()
    if workload == "serve-warm":
        for n, req in enumerate(streams.warmup_requests(seed)):
            dispatcher.dispatch(Request(req["method"], req["params"], id=f"w{n}"))
    responses = []
    summary = None
    with tracing.instrument() if traced else contextlib.nullcontext() as counters:
        before = dispatcher.cache.stats()
        t0 = time.perf_counter()
        for n, req in enumerate(requests):
            with TRACER.span("request", category="perfbench", id=n, method=req["method"]):
                response = dispatcher.dispatch(Request(req["method"], req["params"], id=n))
                protocol.encode_line(response)
            responses.append(response)
        wall = time.perf_counter() - t0
        if traced:
            after = dispatcher.cache.stats()
            delta = {k: after[k] - before[k] for k in ("hits", "misses")}
            summary = tracing.summarize(TRACER.finished_spans(), counters, delta)
    for response in responses:
        response.get("result", {}).pop("meta", None)
    return responses, wall, summary


def alternate(one_pass, rounds: int = 2):
    """Untraced and traced passes in turn: (untraced, traced, overhead).

    ``one_pass(traced)`` returns (outputs, wall seconds, summary).  The
    overhead compares the fastest pass of each kind, which keeps a noisy
    neighbour from posing as tracing cost.
    """
    plain, traced = [], []
    for _ in range(rounds):
        plain.append(one_pass(False))
        traced.append(one_pass(True))
    overhead = min(w for _, w, _ in traced) / min(w for _, w, _ in plain) - 1.0
    return plain, traced, overhead


def serve_traced(workload: str, seed: int, seconds: float) -> Tuple[Outcome, Dict, Dict]:
    outcome = Outcome()
    checker = LabelChecker(outcome)
    _, warmup, records, _, _ = drive_daemon(workload, seed, max(1.0, seconds / 3), 1)
    check_records(warmup, outcome, checker, head_only=False)
    ok = check_records(records, outcome, checker, head_only=False)
    edges = [r.latency_ms - r.response["result"]["meta"]["elapsed_ms"] for r in ok]
    # The daemon arms the metrics registry; so does the in-process run.
    metrics_registry().enable()
    requests = inprocess_requests(workload, seed)
    plain, traced, overhead = alternate(lambda on: dispatch_stream(workload, seed, requests, on))
    for req, response in zip(requests, plain[0][0]):
        if outcome.count_reply(req["method"], response):
            checker(req, response["result"])
    for responses, _, _ in plain[1:] + traced:
        for n, (response, first) in enumerate(zip(responses, plain[0][0])):
            if response != first:
                outcome.mismatch(f"request {n} is answered differently in another pass")
    figures = family_figures(seed, outcome)
    with tracing.instrument():
        if family_figures(seed, outcome) != figures:
            outcome.mismatch("reproduction figures differ when traced")
    summary = traced[-1][2]
    metrics = summary.pop("metrics")
    metrics["serve.edge_ms"] = percentile(edges, 50) if edges else math.inf
    metrics["trace.overhead_frac"] = overhead
    return outcome, metrics, summary


# ----------------------------------------------------------------------
# paper-sweep
# ----------------------------------------------------------------------
SETUP_PROBE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import sweep; sweep.setup(int(sys.argv[3]))"
)


def sweep_setup_s(seed: int) -> float:
    """A fresh interpreter's imports plus generating and parsing the table."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, os.path.join(ROOT, "src"), HERE, str(seed)],
        cwd=ROOT,
        check=True,
        timeout=120,
    )
    return time.perf_counter() - t0


def sweep_pass(programs, outcome: Optional[Outcome], latencies: Optional[List[float]] = None):
    """One table pass on a fresh analysis cache: (rows, seconds, cache)."""
    cache = AnalysisCache()
    rows = []
    t0 = time.perf_counter()
    for program in programs:
        t1 = time.perf_counter()
        with TRACER.span("row", category="perfbench", id=program.name, method="row"):
            row = sweep.sweep_row(program, cache)
        ok = sweep.row_ok(row)
        if outcome is not None:
            ok = outcome.count(None if ok else f"{program.name} diverged", True)
        if latencies is not None:
            latencies.append((time.perf_counter() - t1) * 1e3 if ok else math.inf)
        rows.append(row)
    return rows, time.perf_counter() - t0, cache


def sweep_end_to_end(seed: int, seconds: float) -> Tuple[Outcome, Dict]:
    outcome = Outcome()
    setups = [sweep_setup_s(seed) for _ in range(SPAWNS)]
    programs, family = sweep.setup(seed)
    latencies: List[float] = []
    passes: List[float] = []
    first = None
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        rows, wall, _ = sweep_pass(programs, outcome, latencies)
        passes.append(wall)
        if first is None:
            first = rows
        elif rows != first:
            outcome.mismatch("a table pass differs from the first")
    elapsed = time.perf_counter() - start
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_rps": sum(x != math.inf for x in latencies) / elapsed,
        "latency_p50_ms": percentile(latencies, 50),
        "latency_p95_ms": percentile(latencies, 95),
        "peak_rss_mb": serveload.peak_rss_mb("self"),
        "sweep_s": statistics.median(passes),
        **sweep.reproduction([row for row, f in zip(first, family) if f]),
    }
    return outcome, metrics


def sweep_traced(seed: int) -> Tuple[Outcome, Dict, Dict]:
    outcome = Outcome()
    programs, _ = sweep.setup(seed)
    sweep_pass(programs, None)  # untimed: lazy imports and first-call work

    def one_pass(traced: bool):
        with tracing.instrument() if traced else contextlib.nullcontext() as counters:
            rows, wall, cache = sweep_pass(programs, outcome)
            if not traced:
                return rows, wall, None
            return rows, wall, tracing.summarize(TRACER.finished_spans(), counters, cache.stats())

    plain, traced, overhead = alternate(one_pass)
    for rows, _, _ in plain[1:] + traced:
        if rows != plain[0][0]:
            outcome.mismatch("a table pass differs from the first")
    summary = traced[-1][2]
    metrics = summary.pop("metrics")
    metrics["serve.edge_ms"] = 0.0
    metrics["trace.overhead_frac"] = overhead
    return outcome, metrics, summary


# ----------------------------------------------------------------------
def declared_metrics(kind: str) -> Dict[str, str]:
    """Metric name -> unit of ``end_to_end`` or ``per_layer``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def run(workload: str, seed: int, seconds: float, trace: bool) -> Dict:
    """Measure one workload; the result object the command prints."""
    declared = declared_metrics("per_layer" if trace else "end_to_end")
    if trace:
        if workload == "paper-sweep":
            outcome, metrics, summary = sweep_traced(seed)
        else:
            outcome, metrics, summary = serve_traced(workload, seed, seconds)
        os.makedirs(TRACE_DIR, exist_ok=True)
        path = os.path.join(TRACE_DIR, f"trace-{workload}-{seed}.json")
        with open(path, "w") as fh:
            json.dump({"workload": workload, "seed": seed, "metrics": metrics, **summary}, fh)
        log(f"spans written to {os.path.relpath(path, ROOT)}")
    elif workload == "paper-sweep":
        outcome, metrics = sweep_end_to_end(seed, seconds)
    else:
        outcome, metrics = serve_end_to_end(workload, seed, seconds)
    if set(metrics) != set(declared):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json")
    return {
        "correct": outcome.wrong == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()
        },
    }
