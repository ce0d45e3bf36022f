"""Dependence analysis driver.

Builds the :class:`~repro.analysis.dependence.graph.DependenceGraph` of
one region, reference by reference.  Two knobs exist, both of which the
paper's evaluation implicitly fixes:

* :class:`DependenceGranularity` -- ``ELEMENT`` applies the subscript
  tests of :mod:`repro.analysis.dependence.subscript_tests`; ``VARIABLE`` treats
  every pair of references to the same variable as may-aliasing (the
  whole-array behaviour of simpler prototypes).
* :class:`DirectionMode` -- ``EXECUTION`` orients cross-segment
  dependences by actual execution order (older segment is the source),
  which is the sound interpretation of the paper's definitions;
  ``TEXTUAL`` orients them by textual program order inside the segment
  body, which reproduces the narrative of the paper's Figure 4 for the
  count-down APPLU ``BUTS_DO1`` loop (see DESIGN.md for the discussion
  of this deviation).

Variables recognised as *private* carry no cross-segment dependences
(each segment gets its own copy at run time), so their cross-segment
pairs are suppressed; intra-segment dependences are kept.
"""

from __future__ import annotations

import bisect
import enum
import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.access import linear_terms
from repro.analysis.cache import AnalysisCache
from repro.analysis.dependence.graph import (
    Dependence,
    DependenceGraph,
    dependence_kind,
)
from repro.analysis.dependence.signature import SignatureIndex
from repro.analysis.dependence.subscript_tests import (
    ALL_RELATIONS,
    AliasRelation,
    explicit_pair_may_alias,
    relation_of_reference_pair,
)
from repro.analysis.readonly import read_only_variables
from repro.ir.reference import MemoryReference
from repro.ir.region import ExplicitRegion, LoopRegion, Region
from repro.ir.types import AccessType, DependenceKind, DependenceScope


def _subscript_facts(ref: MemoryReference, memo: Dict[str, tuple]) -> tuple:
    """Cached (textual subscripts, affine decompositions) of one reference.

    Computed once per reference per analysis run -- the pair loops below
    consult these facts O(n^2) times per variable.
    """
    facts = memo.get(ref.uid)
    if facts is None:
        facts = (
            tuple(str(s) for s in ref.subscripts),
            [linear_terms(s) for s in ref.subscripts],
        )
        memo[ref.uid] = facts
    return facts


def _intra_reverse_may_alias(
    ref_a: MemoryReference,
    ref_b: MemoryReference,
    invariant: Set[str],
    memo: Dict[str, tuple],
) -> bool:
    """May an *instance* of the textually-later reference execute before
    an instance of the textually-earlier one within a single segment?

    Within one segment execution the two references interleave only when
    both sit inside a common inner ``DO`` loop: iteration ``t`` of the
    loop runs the textually-later reference before iteration ``t+1``
    runs the textually-earlier one, so a may-alias across iterations is
    a real intra-segment dependence *against* textual order (e.g. the
    accumulation ``y(k) = y(k) + ...`` repeated by an inner loop, where
    the write of iteration ``t`` feeds the read of iteration ``t+1``).

    The one refinement: when the two references have structurally
    identical subscripts and every shared inner index is pinned by a
    dimension of its own (nonzero affine coefficient, no other shared
    index in that dimension, every other symbol in ``invariant`` -- the
    region index and region-read-only scalars, whose values cannot
    change between the two instances), distinct iterations touch
    distinct addresses and aliasing forces the *same* instance -- where
    textual order decides and no reverse dependence exists.  A symbol
    written inside the region (e.g. a scalar decremented by the inner
    loop) voids the pin: ``a(t + m)`` with ``m`` counting down touches
    the same address every iteration.
    """
    shared = [do for do in ref_a.enclosing_loops if do in ref_b.enclosing_loops]
    if not shared:
        return False
    subs_a, dims = _subscript_facts(ref_a, memo)
    subs_b, _ = _subscript_facts(ref_b, memo)
    if subs_a == subs_b and ref_a.subscripts:
        shared_indices = {do.index for do in shared}
        if all(d is not None for d in dims):
            pinned: Set[str] = set()
            for coeffs, _const in dims:
                involved = {
                    name
                    for name, coeff in coeffs.items()
                    if coeff != 0 and name in shared_indices
                }
                others_invariant = all(
                    name in shared_indices or name in invariant
                    for name, coeff in coeffs.items()
                    if coeff != 0
                )
                if len(involved) == 1 and others_invariant:
                    pinned |= involved
            if shared_indices <= pinned:
                return False
    return True


#: Relations that put the pair's instances in different segments.
_CARRIED = frozenset({AliasRelation.BEFORE, AliasRelation.AFTER})

#: One edge of a reference pair ``(a, b)``, relative to the pair:
#: (source is ``a``, sink is ``a``, kind, scope, distance).
_EdgeTemplate = Tuple[
    Tuple[bool, bool, DependenceKind, DependenceScope, Optional[int]], ...
]


def _pair_edges(
    ref_a: MemoryReference,
    ref_b: MemoryReference,
    variable: str,
    intra: bool,
    cross: Sequence[Tuple[MemoryReference, MemoryReference]],
    distance: Optional[int],
    invariant: Set[str],
    memo: Dict[str, tuple],
) -> List[Dependence]:
    """Dependences of one reference pair, in emission order.

    ``intra`` says the pair may alias within one segment instance:
    program order decides the direction, and a shared inner loop
    additionally interleaves the instances, making the reverse direction
    real (see :func:`_intra_reverse_may_alias`).  ``cross`` lists the
    oriented ``(source, sink)`` cross-segment candidates, all at
    ``distance``.  Read-read candidates carry no dependence.
    """
    edges: List[
        Tuple[MemoryReference, MemoryReference, DependenceScope, Optional[int]]
    ] = []
    if intra:
        source, sink = (
            (ref_a, ref_b) if ref_a.order < ref_b.order else (ref_b, ref_a)
        )
        edges.append((source, sink, DependenceScope.INTRA_SEGMENT, 0))
        if _intra_reverse_may_alias(ref_a, ref_b, invariant, memo):
            edges.append((sink, source, DependenceScope.INTRA_SEGMENT, 0))
    for source, sink in cross:
        edges.append((source, sink, DependenceScope.CROSS_SEGMENT, distance))
    out: List[Dependence] = []
    for source, sink, scope, dist in edges:
        kind = dependence_kind(source, sink)
        if kind is not None:
            out.append(Dependence(source, sink, kind, scope, variable, dist))
    return out


class DependenceGranularity(enum.Enum):
    """Precision of the aliasing decision."""

    ELEMENT = "element"
    VARIABLE = "variable"


class DirectionMode(enum.Enum):
    """How cross-segment dependences are oriented."""

    EXECUTION = "execution"
    TEXTUAL = "textual"


@dataclass
class DependenceAnalyzer:
    """Configurable reference-by-reference dependence analyser.

    ``fast_path`` enables the signature-bucketed relation memoization of
    :mod:`repro.analysis.dependence.signature` and the per-class-pair
    edge templates of :meth:`_analyze_loop` (identical results, far
    fewer subscript tests and edge derivations); disable it to run the
    original pair-by-pair tests, e.g. for baseline measurements.
    ``cache`` memoizes whole dependence graphs (and signature indexes)
    across analysis passes.
    """

    granularity: DependenceGranularity = DependenceGranularity.ELEMENT
    direction: DirectionMode = DirectionMode.EXECUTION
    fast_path: bool = True
    cache: Optional[AnalysisCache] = None

    # ------------------------------------------------------------------
    def analyze(
        self,
        region: Region,
        private_variables: Optional[Set[str]] = None,
        read_only: Optional[Set[str]] = None,
    ) -> DependenceGraph:
        """Build the dependence graph of ``region``."""
        private_variables = set(private_variables or ())
        if read_only is None:
            if self.cache is not None:
                read_only = self.cache.get_or_compute(
                    region, "read_only", lambda: read_only_variables(region)
                )
            else:
                read_only = read_only_variables(region)
        if self.cache is not None:
            key = (
                "dependence_graph",
                self.granularity,
                self.direction,
                frozenset(private_variables),
                frozenset(read_only),
            )
            return self.cache.get_or_compute(
                region,
                key,
                lambda: self._build(region, private_variables, read_only),
            )
        return self._build(region, private_variables, read_only)

    def _build(
        self,
        region: Region,
        private_variables: Set[str],
        read_only: Set[str],
    ) -> DependenceGraph:
        if isinstance(region, LoopRegion):
            deps = self._analyze_loop(region, private_variables, read_only)
        elif isinstance(region, ExplicitRegion):
            deps = self._analyze_explicit(region, private_variables, read_only)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown region type {type(region).__name__}")
        graph = DependenceGraph(region.name)
        # Every reference pair is visited once and its edges are distinct,
        # so the analyser never emits the same edge twice.
        graph.extend_distinct(deps)
        return graph

    def _signature_index(
        self, region: LoopRegion, read_only: Set[str]
    ) -> SignatureIndex:
        """Signature index for ``region`` (shared through the cache)."""
        invariant = frozenset(read_only)

        def build() -> SignatureIndex:
            return SignatureIndex(region=region, invariant_symbols=invariant)

        if self.cache is not None:
            return self.cache.get_or_compute(
                region, ("signature_index", invariant), build
            )
        return build()

    # ------------------------------------------------------------------
    # loop regions
    # ------------------------------------------------------------------
    def _analyze_loop(
        self,
        region: LoopRegion,
        private_variables: Set[str],
        read_only: Set[str],
    ) -> List[Dependence]:
        """Dependences of a loop region, one edge template per class pair.

        The edges of a reference pair depend only on the pair's relation
        set, access types, enclosing ``DO`` loops, subscript text,
        ``i == j``, textual order and the variable's privacy.  On the fast
        path references with equal (signature group, access, loops,
        subscript text) form one *class*; the edges of the first pair of
        each class pair become a template that every later pair of the
        same class pair instantiates.  On the seed path every reference
        is its own class, so every pair computes its own edges.
        """
        by_var: Dict[str, List[MemoryReference]] = {}
        for ref in region.references:
            by_var.setdefault(ref.variable, []).append(ref)

        index: Optional[SignatureIndex] = None
        if self.fast_path and self.granularity is DependenceGranularity.ELEMENT:
            index = self._signature_index(region, read_only)

        # Names whose values cannot change between two instances within
        # one segment: the region index and region-read-only scalars.
        invariant = set(read_only) | {region.index}
        memo: Dict[str, tuple] = {}
        class_ids: Dict[tuple, int] = {}
        deps: List[Dependence] = []

        for variable, refs in by_var.items():
            if not any(r.access is AccessType.WRITE for r in refs):
                continue  # read-only variables carry no dependences
            refs_sorted = sorted(refs, key=lambda r: r.order)
            if self.fast_path:
                classes = [
                    class_ids.setdefault(
                        (
                            index.group_of(r) if index is not None else 0,
                            r.access,
                            r.enclosing_loops,
                            _subscript_facts(r, memo)[0],
                        ),
                        len(class_ids),
                    )
                    for r in refs_sorted
                ]
            else:
                classes = list(range(len(refs_sorted)))
            private = variable in private_variables
            templates: Dict[Tuple[int, int, bool, bool], _EdgeTemplate] = {}
            # A read pairs only with writes (read-read pairs carry no
            # dependence), a write with every reference from itself on.
            writes_at = [
                j for j, r in enumerate(refs_sorted) if r.access is AccessType.WRITE
            ]
            for i, ref_a in enumerate(refs_sorted):
                partners: Sequence[int] = (
                    writes_at[bisect.bisect_right(writes_at, i):]
                    if ref_a.access is AccessType.READ
                    else range(i, len(refs_sorted))
                )
                class_a = classes[i]
                order_a = ref_a.order
                for j in partners:
                    ref_b = refs_sorted[j]
                    key = (class_a, classes[j], i == j, order_a < ref_b.order)
                    template = templates.get(key)
                    if template is None:
                        template = templates[key] = self._loop_template(
                            ref_a,
                            ref_b,
                            variable,
                            private,
                            index,
                            region,
                            read_only,
                            invariant,
                            memo,
                        )
                    for src_a, snk_a, kind, scope, distance in template:
                        deps.append(
                            Dependence(
                                ref_a if src_a else ref_b,
                                ref_a if snk_a else ref_b,
                                kind,
                                scope,
                                variable,
                                distance,
                            )
                        )
        return deps

    def _loop_template(
        self,
        ref_a: MemoryReference,
        ref_b: MemoryReference,
        variable: str,
        private: bool,
        index: Optional[SignatureIndex],
        region: LoopRegion,
        read_only: Set[str],
        invariant: Set[str],
        memo: Dict[str, tuple],
    ) -> _EdgeTemplate:
        """Edges of the loop-region pair ``(ref_a, ref_b)``, as a template."""
        if self.granularity is DependenceGranularity.VARIABLE:
            relations = ALL_RELATIONS
        elif index is not None:
            relations = index.relations_of(ref_a, ref_b)
        else:
            relations = relation_of_reference_pair(ref_a, ref_b, region, read_only)
        if not relations:
            return ()
        cross: Tuple[Tuple[MemoryReference, MemoryReference], ...] = ()
        if not private and relations & _CARRIED:
            if self.direction is DirectionMode.TEXTUAL:
                cross = (
                    ((ref_a, ref_b),)
                    if ref_a.order <= ref_b.order
                    else ((ref_b, ref_a),)
                )
            else:
                # Execution order: BEFORE means ref_a's segment is older.
                if AliasRelation.BEFORE in relations:
                    cross += ((ref_a, ref_b),)
                if AliasRelation.AFTER in relations and ref_a is not ref_b:
                    cross += ((ref_b, ref_a),)
        edges = _pair_edges(
            ref_a,
            ref_b,
            variable,
            intra=AliasRelation.SAME in relations and ref_a is not ref_b,
            cross=cross,
            distance=None,
            invariant=invariant,
            memo=memo,
        )
        return tuple(
            (d.source is ref_a, d.sink is ref_a, d.kind, d.scope, d.distance)
            for d in edges
        )

    # ------------------------------------------------------------------
    # explicit regions
    # ------------------------------------------------------------------
    def _analyze_explicit(
        self,
        region: ExplicitRegion,
        private_variables: Set[str],
        read_only: Set[str],
    ) -> List[Dependence]:
        from repro.analysis.cfg import SegmentGraph

        segment_graph = SegmentGraph.from_region(region)
        reachable: Dict[str, Set[str]] = {
            name: segment_graph.reachable_from(name)
            for name in region.segment_names()
        }
        by_var: Dict[str, List[MemoryReference]] = {}
        for ref in region.references:
            by_var.setdefault(ref.variable, []).append(ref)

        # Explicit regions have no region index; only region-read-only
        # scalars are invariant between two instances within one segment.
        memo: Dict[str, tuple] = {}
        deps: List[Dependence] = []

        for variable, refs in by_var.items():
            if not any(r.access is AccessType.WRITE for r in refs):
                continue
            private = variable in private_variables
            for ref_a, ref_b in itertools.combinations(refs, 2):
                if (
                    ref_a.access is AccessType.READ
                    and ref_b.access is AccessType.READ
                ):
                    continue
                if self.granularity is DependenceGranularity.ELEMENT:
                    if not explicit_pair_may_alias(ref_a, ref_b):
                        continue
                intra = ref_a.segment == ref_b.segment
                cross: Tuple[Tuple[MemoryReference, MemoryReference], ...] = ()
                distance: Optional[int] = None
                if not intra:
                    if private:
                        continue
                    age_a = region.age_of(ref_a.segment)
                    age_b = region.age_of(ref_b.segment)
                    source, sink = (
                        (ref_a, ref_b) if age_a < age_b else (ref_b, ref_a)
                    )
                    # Segments on mutually exclusive control-flow paths can
                    # never both appear in a final execution, so no data
                    # dependence connects them (the RFW analysis separately
                    # accounts for stale values left by wrong-path writes).
                    if sink.segment not in reachable.get(source.segment, set()):
                        continue
                    cross = ((source, sink),)
                    distance = abs(age_b - age_a)
                deps.extend(
                    _pair_edges(
                        ref_a,
                        ref_b,
                        variable,
                        intra=intra,
                        cross=cross,
                        distance=distance,
                        invariant=read_only,
                        memo=memo,
                    )
                )
        return deps


def analyze_dependences(
    region: Region,
    private_variables: Optional[Set[str]] = None,
    read_only: Optional[Set[str]] = None,
    granularity: DependenceGranularity = DependenceGranularity.ELEMENT,
    direction: DirectionMode = DirectionMode.EXECUTION,
    fast_path: bool = True,
    cache: Optional[AnalysisCache] = None,
) -> DependenceGraph:
    """Convenience wrapper around :class:`DependenceAnalyzer`."""
    analyzer = DependenceAnalyzer(
        granularity=granularity,
        direction=direction,
        fast_path=fast_path,
        cache=cache,
    )
    return analyzer.analyze(
        region, private_variables=private_variables, read_only=read_only
    )
