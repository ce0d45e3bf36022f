"""The traced run: spans at layer boundaries, self-times per layer.

:func:`instrument` wraps the public functions that the daemon's handlers
and the sweep already call -- it adds no logic of its own -- in
:data:`repro.obs.tracer.TRACER` spans, so they nest with the spans the
library emits itself once the tracer is on (``analysis.label_region``
and its access/liveness/dependence/rfw/labeling phases, ``engine.*``).
Span names start with their layer, named after the repo's modules:
``ir``, ``serve``, ``analysis``, ``runtime`` (the library's ``engine.*``
spans belong here) and ``timing``.  The benchmark opens one root span
per operation -- ``request`` (a daemon request: dispatch plus response
encoding) or ``row`` (one row of the sweep table) -- carrying the
operation's id.  Spans stay in memory until :func:`summarize` turns them
into per-layer figures; a span's self-time is its duration minus the
part its child spans cover.
"""

from __future__ import annotations

import contextlib
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.idempotency import labeling
from repro.obs.tracer import TRACER, Span
from repro.runtime.engines import SpeculativeEngine
from repro.runtime.interpreter import SequentialInterpreter
from repro.runtime.memory import MemoryImage
from repro.runtime.stats import ExecutionStats
from repro.serve import dispatch, protocol
from repro.timing import makespan

ROOTS = ("request", "row")
PHASES = ("access", "liveness", "dependence", "rfw", "labeling")
#: Library span prefixes that belong to a layer of another name.
LAYER_ALIASES = {"engine": "runtime"}


class Counters:
    """Counts taken at the wrapped boundaries."""

    def __init__(self) -> None:
        self.parses = 0
        self.resolves = 0
        self.resolve_hits = 0
        self.engine = ExecutionStats()


def _wrap(name: str, fn: Callable) -> Callable:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with TRACER.span(name, category="perfbench"):
            return fn(*args, **kwargs)

    return wrapper


@contextlib.contextmanager
def instrument() -> Iterator[Counters]:
    """Trace the layer boundaries while the block runs.

    Yields the :class:`Counters` the wrappers fill.  The tracer is reset
    on entry and disabled, and every wrapped function restored, on exit;
    read the spans with ``TRACER.finished_spans()`` before the next
    :func:`instrument`.
    """
    counters = Counters()
    originals: List[tuple] = []

    def patch(owner: Any, attr: str, wrapper: Callable) -> None:
        originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    parse = dispatch.parse_program

    def counted_parse(source: str):
        counters.parses += 1
        return parse(source)

    resolve = dispatch.Dispatcher.resolve_program

    def counted_resolve(self, params):
        before = counters.parses
        program = resolve(self, params)
        counters.resolves += 1
        counters.resolve_hits += counters.parses == before
        return program

    label = labeling.label_region

    def cold_label(region, *args, **kwargs):
        # A call is cold when it missed the analysis cache it was given.
        cache = kwargs.get("cache")
        misses = cache.stats()["misses"] if cache is not None else None
        with TRACER.span("analysis.label", category="perfbench") as handle:
            result = label(region, *args, **kwargs)
            handle.set(
                refs=len(region.references),
                cold=cache is None or cache.stats()["misses"] > misses,
            )
        return result

    engine_run = SpeculativeEngine.run

    def counted_run(self):
        with TRACER.span("runtime.engine", category="perfbench"):
            result = engine_run(self)
        counters.engine = counters.engine.merge(result.stats)
        return result

    interpret = SequentialInterpreter.run

    def verify_run(self):
        # The sequential run inside sequential_baseline is the timing
        # layer's own work; every other one is a verdict reference.
        current = TRACER.current_span()
        if current is not None and current.name == "timing.baseline":
            return interpret(self)
        with TRACER.span("runtime.verify", category="perfbench"):
            return interpret(self)

    baseline = _wrap("timing.baseline", makespan.sequential_baseline)
    schedule = _wrap("timing.makespan", makespan.compute_makespan)
    patch(dispatch, "parse_program", _wrap("ir.parse", counted_parse))
    patch(dispatch.Dispatcher, "resolve_program", _wrap("serve.resolve", counted_resolve))
    patch(dispatch, "label_region", cold_label)
    patch(labeling, "label_region", cold_label)
    patch(SpeculativeEngine, "run", counted_run)
    patch(SequentialInterpreter, "run", verify_run)
    patch(MemoryImage, "differences", _wrap("runtime.verify", MemoryImage.differences))
    patch(dispatch, "sequential_baseline", baseline)
    patch(makespan, "sequential_baseline", baseline)
    patch(dispatch, "compute_makespan", schedule)
    patch(makespan, "compute_makespan", schedule)
    patch(protocol, "encode_line", _wrap("serve.encode", protocol.encode_line))
    TRACER.reset()
    TRACER.enable()
    try:
        yield counters
    finally:
        TRACER.disable()
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


def layer_of(name: str) -> str:
    if name in ROOTS:
        return "unattributed"
    prefix = name.split(".", 1)[0]
    return LAYER_ALIASES.get(prefix, prefix)


def group_of(name: str) -> str:
    """The layer of ``name``, with runtime split into verify and engine."""
    layer = layer_of(name)
    if layer == "runtime":
        return "runtime.verify" if name == "runtime.verify" else "runtime.engine"
    return layer


def _covered(intervals: List[tuple]) -> int:
    total = 0
    end = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def self_times(spans: List[Span]) -> Dict[int, int]:
    """Span id -> duration minus the part its children cover (ns)."""
    children: Dict[int, List[tuple]] = defaultdict(list)
    for span in spans:
        if span.parent_id is not None:
            children[span.parent_id].append((span.start_ns, span.end_ns))
    return {
        span.span_id: span.duration_ns - _covered(children.get(span.span_id, []))
        for span in spans
    }


def summarize(
    spans: List[Span], counters: Counters, cache_stats: Dict[str, int]
) -> Dict[str, Any]:
    """Per-layer figures of one traced run.

    Layer times (``*_ms`` except the two ``label`` ones) are self-time
    per root operation; ``analysis.label_cold_ms``/``label_warm_ms`` are
    the mean duration of one ``label_region`` call that missed/hit the
    cache.  ``by_method`` splits self-time by :func:`group_of` for
    each kind of root operation.  ``cache_stats`` is the analysis-cache hit/miss
    delta over the traced operations.
    """
    by_id = {span.span_id: span for span in spans}
    own = self_times(spans)
    roots = [span for span in spans if span.name in ROOTS]
    root_of: Dict[int, Span] = {}

    def find_root(span: Span) -> Optional[Span]:
        chain = []
        while span.span_id not in root_of and span.name not in ROOTS:
            chain.append(span)
            parent = by_id.get(span.parent_id) if span.parent_id is not None else None
            if parent is None:
                return None
            span = parent
        root = root_of.get(span.span_id, span)
        for link in chain:
            root_of[link.span_id] = root
        root_of[span.span_id] = root
        return root

    per_name: Dict[str, float] = defaultdict(float)
    per_layer: Dict[str, float] = defaultdict(float)
    by_method: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span in spans:
        root = find_root(span)
        if root is None:
            continue
        ms = own[span.span_id] / 1e6
        per_name[span.name] += ms
        per_layer[layer_of(span.name)] += ms
        method = root.attributes.get("method", root.name)
        by_method[method][group_of(span.name)] += ms
        if span is root:
            by_method[method]["total"] += span.duration_ns / 1e6
            by_method[method]["count"] += 1
    ops = max(1, len(roots))
    root_ms = sum(span.duration_ns for span in roots) / 1e6

    def per_op(name: str) -> float:
        return per_name[name] / ops

    def mean_ms(calls: List[Span]) -> float:
        return sum(s.duration_ns for s in calls) / 1e6 / len(calls) if calls else 0.0

    labels = [span for span in spans if span.name == "analysis.label"]
    cold = [s for s in labels if s.attributes.get("cold")]
    warm = [s for s in labels if not s.attributes.get("cold")]
    cold_s = sum(s.duration_ns for s in cold) / 1e9
    engines = [span for span in spans if span.name == "runtime.engine"]
    engine_s = sum(s.duration_ns for s in engines) / 1e9
    stats = counters.engine
    attempts = stats.segments_started
    lookups = cache_stats["hits"] + cache_stats["misses"]
    metrics = {
        "ir.parse_ms": per_op("ir.parse"),
        "serve.intern_hit_ratio": counters.resolve_hits / counters.resolves
        if counters.resolves
        else 0.0,
        "serve.encode_ms": per_op("serve.encode"),
        "analysis.label_cold_ms": mean_ms(cold),
        "analysis.label_warm_ms": mean_ms(warm),
        "analysis.refs_per_s": sum(s.attributes["refs"] for s in cold) / cold_s
        if cold_s
        else 0.0,
        "analysis.cache_hit_ratio": cache_stats["hits"] / lookups if lookups else 0.0,
        "runtime.verify_ms": per_op("runtime.verify"),
        "runtime.engine_ms": sum(
            ms for name, ms in per_name.items() if group_of(name) == "runtime.engine"
        )
        / ops,
        "runtime.engine_ops_per_s": (stats.reads + stats.writes) / engine_s
        if engine_s
        else 0.0,
        "runtime.batched_frac": stats.batched_attempts / attempts if attempts else 0.0,
        "runtime.batch_fallback_ratio": stats.batch_fallbacks / stats.batched_attempts
        if stats.batched_attempts
        else 0.0,
        "runtime.squash_ratio": stats.rollbacks / attempts if attempts else 0.0,
        "timing.baseline_ms": per_op("timing.baseline"),
        "timing.makespan_ms": per_op("timing.makespan"),
        "trace.unattributed_frac": per_layer["unattributed"] / root_ms if root_ms else 0.0,
    }
    for phase in PHASES:
        metrics[f"analysis.{phase}_ms"] = per_op(f"analysis.{phase}")
    return {
        "metrics": metrics,
        "operations": len(roots),
        "layers_ms": dict(per_layer),
        "by_method": {m: dict(v) for m, v in by_method.items()},
        "engine_attempts": {
            "batched": stats.batched_attempts,
            "fallback": stats.batch_fallbacks,
            "interleaved": stats.segments_started - stats.batched_attempts,
        },
        "engine_calls": len(engines),
        "spans": [
            [s.name, s.span_id, s.parent_id, s.start_ns, s.end_ns, dict(s.attributes)]
            for s in spans
        ],
    }
