"""Seeded inputs of the three workloads.

Every function here is a pure function of its arguments: the same seed
gives the same programs and the same request stream, byte for byte.
Only DSL text leaves this module for the daemon; the benchmark never
hands it a parsed object.
"""

from __future__ import annotations

import random
from itertools import count
from typing import Dict, Iterator, List, Tuple

from repro.bench.workloads import _GENERATORS, FAMILIES
from repro.corpus import generate_source

#: Family sizes at which one warm CASE ``simulate`` costs about the same
#: (~30 ms on a 2-core x86 box, 2 statements).  At one shared size
#: stencil costs 13x guarded, which splits latency into modes.
WARM_SIZES: Dict[str, int] = {
    "stencil": 24,
    "reduction": 48,
    "sparse": 64,
    "guarded": 160,
}
#: ``paper-sweep`` family programs are 1.5x the ``serve-warm`` ones.
SWEEP_SCALE = 1.5
#: Corpus programs with an explicit region in the sweep table, and the
#: corpus seed they come from.
SWEEP_EXPLICIT = 12
SWEEP_CORPUS_SEED = 20011
#: Statements per family program of ``serve-warm`` and ``paper-sweep``.
STATEMENTS = 2
#: Statement counts of the ``serve-cold`` family programs (analysis cost
#: grows with statements, not with size) and the sizes they cycle through.
COLD_STATEMENTS = range(12, 33, 2)
COLD_SIZES = range(8, 17)

#: Method cycle of the ``serve-warm`` client: (method, engine).
WARM_CYCLE: Tuple[Tuple[str, str], ...] = (
    ("label", ""),
    ("simulate", "case"),
    ("simulate", "hose"),
    ("simulate", "case"),
    ("simulate", "hose"),
    ("speedup_sweep", ""),
)
SWEEP_PROCESSORS = [1, 2, 4]


def _rng(*key: object) -> random.Random:
    # String seeds hash through SHA-512, so they are stable across runs
    # and interpreters (unlike hash() of a tuple).
    return random.Random("/".join(str(k) for k in key))


def rename(source: str, name: str) -> str:
    """``source`` with its ``program`` header renamed to ``name``."""
    head, _, rest = source.partition("\n")
    if not head.startswith("program "):
        raise ValueError("source does not start with a program header")
    return f"program {name}\n{rest}"


def family_source(family: str, size: int, statements: int, name: str) -> str:
    return rename(_GENERATORS[family](size, statements), name)


def warm_pool(seed: int) -> List[str]:
    """One program per family; the seed names them, so another seed's
    pool is other sources to the interner."""
    return [
        family_source(family, WARM_SIZES[family], STATEMENTS, f"warm_{family}_{seed}")
        for family in FAMILIES
    ]


def request(method: str, source: str, engine: str = "") -> Dict:
    params: Dict = {"dsl": source}
    if engine:
        params["engine"] = engine
    if method == "speedup_sweep":
        params["processors"] = list(SWEEP_PROCESSORS)
    return {"method": method, "params": params}


def warm_stream(seed: int) -> Iterator[Tuple[int, Dict]]:
    """Endless ``(n, request)`` stream of the ``serve-warm`` client.

    The client cycles :data:`WARM_CYCLE`; the program of each request is
    drawn without replacement from the pool, so every program takes
    every method equally often in each span of
    ``len(WARM_CYCLE) * len(pool)`` requests and the seed only reorders.
    """
    pool = warm_pool(seed)
    rng = _rng("warm-stream", seed)
    draws = {step: [] for step in range(len(WARM_CYCLE))}
    for n in count():
        step = n % len(WARM_CYCLE)
        if not draws[step]:
            draws[step] = rng.sample(pool, len(pool))
        method, engine = WARM_CYCLE[step]
        yield n, request(method, draws[step].pop(), engine)


def warmup_requests(seed: int) -> List[Dict]:
    """The untimed pass that fills the interner and the analysis cache."""
    return [
        request(method, source, engine)
        for source in warm_pool(seed)
        for method, engine in (("label", ""), ("simulate", "case"), ("speedup_sweep", ""))
    ]


#: One round of ``serve-cold`` family programs: every (family, statement
#: count) pair once, with its size and whether it also gets a ``label``.
COLD_ROUND: Tuple[Tuple[str, int, int, bool], ...] = tuple(
    (family, statements, COLD_SIZES[k % len(COLD_SIZES)], k % 3 == 0)
    for k, (family, statements) in enumerate(
        (family, statements) for family in FAMILIES for statements in COLD_STATEMENTS
    )
)


def cold_program(seed: int, index: int) -> Tuple[str, bool, bool]:
    """Program ``index`` of the ``serve-cold`` stream: (source,
    is_family, labelled).

    Two of every three programs come from the families, so the median
    request falls inside the family programs' cost range, not on the
    edge between them and the cheap corpus programs.  The family
    programs are stratified: family program ``j`` is entry ``j`` of a
    run of :data:`COLD_ROUND` rounds, each in its own seeded order, so
    every seed's stream is the same family programs round by round and
    the seed only reorders and names them.  Every third corpus program
    is labelled.
    """
    name = f"cold_{seed}_{index}"
    block, slot = divmod(index, 3)
    if slot == 2:
        return rename(generate_source(seed, index), name), False, block % 3 == 0
    j = 2 * block + slot
    rounds, k = divmod(j, len(COLD_ROUND))
    family, statements, size, labelled = _rng("cold-round", seed, rounds).sample(
        COLD_ROUND, len(COLD_ROUND)
    )[k]
    return family_source(family, size, statements, name), True, labelled


def cold_requests(seed: int, index: int) -> List[Dict]:
    """Requests of cold program ``index``: ``analyze``, and for a
    labelled program a ``label`` of a renamed copy, so that request too
    carries a source the daemon has not seen."""
    source, _, labelled = cold_program(seed, index)
    out = [request("analyze", source)]
    if labelled:
        out.append(request("label", rename(source, f"cold_{seed}_{index}_l")))
    return out


def cold_stream(seed: int) -> Iterator[Tuple[int, Dict]]:
    """Endless ``(program index, request)`` stream of the client."""
    for index in count():
        for req in cold_requests(seed, index):
            yield index, req


def sweep_sources(seed: int) -> List[Tuple[str, bool]]:
    """The ``paper-sweep`` table: (source, is_family) rows.

    The table is the same programs for every seed -- the four families
    and the first corpus programs of :data:`SWEEP_CORPUS_SEED` with an
    explicit region -- so the figures taken on it, and its cost, compare
    across seeds.  The seed names the programs and orders the rows.
    """
    rows = [
        (
            family_source(
                family,
                round(WARM_SIZES[family] * SWEEP_SCALE),
                STATEMENTS,
                f"sweep_{family}_{seed}",
            ),
            True,
        )
        for family in FAMILIES
    ]
    explicit = []
    for index in count():
        source = generate_source(SWEEP_CORPUS_SEED, index)
        if " explicit" in source:
            explicit.append((rename(source, f"sweep_corpus{index}_{seed}"), False))
            if len(explicit) == SWEEP_EXPLICIT:
                break
    rows += explicit
    _rng("sweep-order", seed).shuffle(rows)
    return rows
