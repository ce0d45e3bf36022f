"""The paper's HOSE/CASE table, one program per row, through the library.

For each program: label every region (Algorithm 2), take the sequential
baseline, run HOSE and CASE (``batch=True``, window 4) at a tight and a
roomy capacity with a ``TimingRecorder`` attached, price each run at
P = 1, 2, 4, 8 and compare its final memory against the sequential
result.  Capacity 8 overflows HOSE's buffers, so the batched scheduler
falls back to write-through; the corpus programs' explicit regions run
op-interleaved.  Layers are reached through module attributes
(``labeling.label_region``, ``makespan.compute_makespan``, ...) so the
traced run can wrap them.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from repro.analysis.cache import AnalysisCache
from repro.idempotency import labeling
from repro.ir.dsl import parse_program
from repro.ir.program import Program
from repro.runtime.engines import CASEEngine, HOSEEngine
from repro.timing import makespan
from repro.timing.cost import DEFAULT_COST_MODEL
from repro.timing.events import TimingRecorder

import streams

ENGINES = (("hose", HOSEEngine), ("case", CASEEngine))
WINDOW = 4
#: Tight (overflows HOSE) and roomy speculative-storage capacities.
CAPACITIES = (8, 64)
TIGHT = CAPACITIES[0]
PROCESSORS = (1, 2, 4, 8)


def sweep_row(program: Program, cache: AnalysisCache) -> Dict:
    """One table row: labels, baseline and the four engine runs.

    Every value in the row is a deterministic function of ``program``;
    a run is ``ok`` when its final memory equals the sequential result
    bit for bit and it did not degrade to sequential execution.
    """
    refs = idempotent = 0
    for region in program.regions:
        result = labeling.label_region(region, program=program, cache=cache)
        refs += len(region.references)
        idempotent += len(result.idempotent_references())
    baseline, sequential = makespan.sequential_baseline(program, DEFAULT_COST_MODEL)
    runs = {}
    for capacity in CAPACITIES:
        for name, engine_cls in ENGINES:
            recorder = TimingRecorder(DEFAULT_COST_MODEL)
            kwargs: Dict = {
                "window": WINDOW,
                "capacity": capacity,
                "recorder": recorder,
                "batch": True,
            }
            if engine_cls is CASEEngine:
                kwargs["cache"] = cache
            result = engine_cls(program, **kwargs).run()
            same = not sequential.memory.differences(result.memory, tolerance=0.0)
            recording = recorder.recording()
            spans = {
                p: makespan.compute_makespan(recording, p, sequential_cycles=baseline)
                for p in PROCESSORS
            }
            runs[f"{name}@{capacity}"] = {
                "ok": same and not result.degraded,
                "stats": result.stats.as_dict(),
                "makespan": {p: span.makespan for p, span in spans.items()},
                "speedup": {p: span.speedup for p, span in spans.items()},
            }
    return {
        "program": program.name,
        "refs": refs,
        "idempotent_refs": idempotent,
        "baseline": baseline,
        "runs": runs,
    }


def row_ok(row: Dict) -> bool:
    return all(run["ok"] for run in row["runs"].values())


def reproduction(rows: List[Dict]) -> Dict[str, float]:
    """The paper's figures over the family rows of a table.

    ``case_speedup_p4`` is the geomean of CASE's P=4 speedup at the tight
    capacity; ``case_storage_frac`` is the entries CASE put in speculative
    storage over HOSE's, summed over both capacities -- committed plus
    drained on overflow, since an overflowing buffer drains instead of
    committing; ``idempotent_ref_frac`` is the static share of references
    labelled idempotent.
    """

    def entries(row: Dict, engine: str) -> int:
        return sum(
            row["runs"][f"{engine}@{capacity}"]["stats"][counter]
            for capacity in CAPACITIES
            for counter in ("commit_entries", "overflow_entries")
        )

    speedups = [row["runs"][f"case@{TIGHT}"]["speedup"][4] for row in rows]
    return {
        "case_speedup_p4": math.exp(sum(math.log(s) for s in speedups) / len(speedups)),
        "case_storage_frac": sum(entries(r, "case") for r in rows)
        / sum(entries(r, "hose") for r in rows),
        "idempotent_ref_frac": sum(r["idempotent_refs"] for r in rows)
        / sum(r["refs"] for r in rows),
    }


def setup(seed: int) -> Tuple[List[Program], List[bool]]:
    """Generate and parse the table of ``seed``: (programs, is_family)."""
    sources = streams.sweep_sources(seed)
    return [parse_program(source) for source, _ in sources], [f for _, f in sources]
