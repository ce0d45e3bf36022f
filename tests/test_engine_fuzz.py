"""Differential fuzz test of the speculative engines.

Every speculative run must end in the sequential interpreter's memory,
bit for bit, without degrading.  This sweeps a seeded sample of the
adversarial corpus (:mod:`repro.corpus`) -- loop and explicit regions,
gathers, scatters, privatizable temporaries, branches -- through both
engines and both attempt executors at a tight and a roomy window /
capacity point, with the invariant auditor attached to every round.
"""

import pytest

from repro.corpus import generate_source
from repro.ir.dsl import parse_program
from repro.resilience.harness import run_resilient
from repro.runtime.interpreter import SequentialInterpreter

SEED = 20261017
PROGRAMS = 40
#: (window, capacity): a small window overflowing tiny buffers, and a
#: wide window with roomy ones.
POINTS = ((2, 2), (6, 64))


@pytest.mark.parametrize("index", range(PROGRAMS))
def test_engines_match_sequential(index):
    program = parse_program(generate_source(SEED, index))
    expected = SequentialInterpreter(program, model_latency=False).run().memory
    for engine in ("hose", "case"):
        for batch in (False, True):
            for window, capacity in POINTS:
                result = run_resilient(
                    program,
                    engine=engine,
                    plan=None,
                    audit=True,
                    window=window,
                    capacity=capacity,
                    batch=batch,
                )
                where = f"{engine} batch={batch} window={window} capacity={capacity}"
                assert not result.degraded, f"{where}: {result.degradation}"
                diffs = expected.differences(result.memory, tolerance=0.0)
                assert diffs == {}, f"{where}: {sorted(diffs.items())[:5]}"
