"""Pinned analysis results: dependence lists, access summaries and labels.

Bit-identity of the final labels alone does not pin the analysis: the
engines, the checker and the reports also read the dependence graph in
its stored order and the per-segment access summaries.  This test pins,
for every region of a fixed program set and every analysis mode, the
sha256 digests of

* the *ordered* dependence list, one ``(source, sink, kind, scope,
  variable, distance)`` line per edge;
* the access summaries: per segment and variable, the Algorithm-1 mark,
  the covered and exposed reads and each covered read's covering write;
* the labels and idempotency categories of every reference.

The program set is the four bench families at statement counts 12-32
(even) and sizes 8 and 16, plus 60 ``repro.corpus`` programs; the modes
are both :class:`DirectionMode` values x both
:class:`DependenceGranularity` values x ``fast_path`` on and off.

The expected digests live in ``analysis_expected.json`` next to this
file.  A change that is meant to move analysis results regenerates them
with::

    PYTHONPATH=src python tests/test_analysis_pinned.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Dict, Iterable, Iterator, Tuple

import pytest

from repro.analysis.cache import AnalysisCache
from repro.analysis.dependence.analyzer import DependenceGranularity, DirectionMode
from repro.bench.workloads import FAMILIES, generate
from repro.corpus import corpus
from repro.idempotency.labeling import LabelingResult, label_region
from repro.ir.program import Program

EXPECTED_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "analysis_expected.json"
)
STATEMENTS = tuple(range(12, 33, 2))
SIZES = (8, 16)
CORPUS_SEED = 20260807
CORPUS_COUNT = 60
MODES = tuple(
    (direction, granularity, fast_path)
    for direction in DirectionMode
    for granularity in DependenceGranularity
    for fast_path in (True, False)
)


def _mode_id(direction: DirectionMode, granularity: DependenceGranularity, fast: bool) -> str:
    return f"{direction.value}-{granularity.value}-{'fast' if fast else 'seed'}"


def _programs() -> Iterator[Tuple[str, Program]]:
    for family in FAMILIES:
        for statements in STATEMENTS:
            for size in SIZES:
                yield f"{family}-s{statements}-n{size}", generate(
                    family, size, statements
                ).program
    for index, program in corpus(CORPUS_COUNT, CORPUS_SEED):
        yield f"corpus-{index}", program


def _digest(lines: Iterable[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _dependence_lines(result: LabelingResult) -> Iterator[str]:
    for dep in result.dependences:
        yield (
            f"{dep.source.uid} {dep.sink.uid} {dep.kind.value} "
            f"{dep.scope.value} {dep.variable} {dep.distance}"
        )


def _summary_lines(result: LabelingResult) -> Iterator[str]:
    for segment, summary in result.summaries.items():
        for variable, info in summary.variables.items():
            yield (
                f"{segment} {variable} {info.mark.value}"
                f" covered={[r.uid for r in info.covered_reads]}"
                f" exposed={[r.uid for r in info.exposed_reads]}"
                f" covering={sorted((k, w.uid) for k, w in info.covering_writes.items())}"
            )


def _label_lines(result: LabelingResult) -> Iterator[str]:
    for ref in result.region.references:
        yield f"{ref.uid} {result.labels[ref.uid].value} {result.categories[ref.uid].value}"


def _fingerprint(program: Program) -> Dict[str, Dict]:
    out: Dict[str, Dict] = {}
    # One cache per code path: the modes of a path share the read-only
    # sets, summaries and RFW results, never a dependence graph.
    caches = {True: AnalysisCache(), False: AnalysisCache()}
    for region in program.regions:
        summaries = set()
        modes: Dict[str, Dict[str, str]] = {}
        for direction, granularity, fast in MODES:
            result = label_region(
                region,
                program=program,
                granularity=granularity,
                direction=direction,
                fast_path=fast,
                cache=caches[fast],
            )
            summaries.add(_digest(_summary_lines(result)))
            modes[_mode_id(direction, granularity, fast)] = {
                "dependences": _digest(_dependence_lines(result)),
                "labels": _digest(_label_lines(result)),
            }
        # The access summaries do not depend on the mode: one digest.
        out[region.name] = {"summaries": sorted(summaries), "modes": modes}
    return out


PROGRAMS = dict(_programs())


def _expected() -> Dict[str, Dict]:
    with open(EXPECTED_PATH) as handle:
        return json.load(handle)


def test_expected_covers_the_program_set():
    assert sorted(_expected()) == sorted(PROGRAMS)


@pytest.mark.parametrize("program_id", sorted(PROGRAMS))
def test_analysis_pinned(program_id):
    assert _fingerprint(PROGRAMS[program_id]) == _expected()[program_id]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_analysis_pinned.py --write")
    fingerprints = {pid: _fingerprint(program) for pid, program in sorted(PROGRAMS.items())}
    with open(EXPECTED_PATH, "w") as handle:
        json.dump(fingerprints, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(fingerprints)} fingerprints to {EXPECTED_PATH}")
