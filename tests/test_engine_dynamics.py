"""Pinned engine dynamics: counters, storage peaks and timing recordings.

Bit-identity with the sequential interpreter only pins the *final*
memory.  The paper's figures (CASE's P=4 speedup and its share of
HOSE's speculative-storage entries) come from the engines' dynamics --
the counters of :class:`~repro.runtime.stats.ExecutionStats`, the
speculative-store peaks and the timing recording -- so a scheduler
change that keeps memory right but moves a squash, a stall or a commit
still changes the results.  This test pins those quantities for every
workload family under HOSE and CASE, batched and op-interleaved, at a
tight and a roomy capacity, plus one faulted run per fault kind.

The expected values live in ``engine_dynamics_expected.json`` next to
this file.  A change that is meant to move the dynamics regenerates
them with::

    PYTHONPATH=src python tests/test_engine_dynamics.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Dict, Iterator, Tuple

import pytest

from repro.bench.workloads import FAMILIES, generate
from repro.resilience.faults import FAULT_KINDS, FaultPlan
from repro.resilience.harness import run_resilient
from repro.runtime.engines import CASEEngine, HOSEEngine
from repro.timing.cost import DEFAULT_COST_MODEL
from repro.timing.events import TimingRecorder

EXPECTED_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "engine_dynamics_expected.json"
)
SIZE = 10
STATEMENTS = 3
CAPACITIES = (2, 64)
ENGINES = (("hose", HOSEEngine), ("case", CASEEngine))
FAULT_FAMILY = "stencil"
#: Per-op faults fire on every simulated operation, store faults on far
#: fewer opportunities; these rates make every kind fire a few times.
FAULT_RATES = {"segment_exception": 0.01, "bad_subscript": 0.01}
STORE_FAULT_RATE = 0.2
FAULT_SEED = 1


def _fingerprint(result, recorder: TimingRecorder) -> Dict:
    recording = json.dumps(recorder.recording().as_dict(), sort_keys=True)
    return {
        "stats": result.stats.as_dict(),
        "spec_peak_entries": result.spec_peak_entries,
        "spec_peak_segment_entries": result.spec_peak_segment_entries,
        "degraded": result.degraded,
        "fault_counts": result.fault_counts,
        "recording_sha256": hashlib.sha256(recording.encode()).hexdigest(),
    }


def _cases() -> Iterator[Tuple[str, object]]:
    """(case id, thunk returning the fingerprint) over the whole matrix."""
    programs = {family: generate(family, SIZE, STATEMENTS).program for family in FAMILIES}
    for family, program in programs.items():
        for name, cls in ENGINES:
            for batch in (False, True):
                for capacity in CAPACITIES:

                    def run(program=program, cls=cls, batch=batch, capacity=capacity):
                        recorder = TimingRecorder(DEFAULT_COST_MODEL)
                        result = cls(
                            program,
                            window=4,
                            capacity=capacity,
                            recorder=recorder,
                            batch=batch,
                        ).run()
                        return _fingerprint(result, recorder)

                    mode = "batched" if batch else "interleaved"
                    yield f"{family}-{name}-{mode}-cap{capacity}", run
    for kind in FAULT_KINDS:
        for name, _ in ENGINES:
            for batch in (False, True):

                def run(kind=kind, name=name, batch=batch):
                    recorder = TimingRecorder(DEFAULT_COST_MODEL)
                    result = run_resilient(
                        programs[FAULT_FAMILY],
                        engine=name,
                        plan=FaultPlan.single(kind, FAULT_RATES.get(kind, STORE_FAULT_RATE)),
                        seed=FAULT_SEED,
                        recorder=recorder,
                        batch=batch,
                    )
                    return _fingerprint(result, recorder)

                mode = "batched" if batch else "interleaved"
                yield f"fault-{kind}-{name}-{mode}", run


CASES = dict(_cases())


def _expected() -> Dict[str, Dict]:
    with open(EXPECTED_PATH) as handle:
        return json.load(handle)


def test_expected_covers_the_matrix():
    assert sorted(_expected()) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_dynamics_pinned(case):
    assert CASES[case]() == _expected()[case]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_engine_dynamics.py --write")
    fingerprints = {case: run() for case, run in sorted(CASES.items())}
    with open(EXPECTED_PATH, "w") as handle:
        json.dump(fingerprints, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(CASES)} fingerprints to {EXPECTED_PATH}")
