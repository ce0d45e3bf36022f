"""AnalysisCache concurrency regression tests.

The ``repro.serve`` daemon shares one :class:`AnalysisCache` across
concurrent sessions.  Before the lock landed, the unsynchronized
``hits``/``misses`` bumps lost updates under thread contention and
racing misses could hand two different result objects to two callers
(breaking the aliasing contract).  These tests hammer one cache from a
thread pool with a tiny interpreter switch interval to make the
pre-fix races all but certain.
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.analysis.cache import AnalysisCache
from repro.analysis.dependence.signature import SignatureIndex, signature_of
from repro.analysis.readonly import read_only_variables
from repro.idempotency.labeling import label_region
from repro.ir.dsl import parse_program

THREADS = 8
LOOKUPS_PER_THREAD = 4000


@pytest.fixture
def tight_switching():
    """Force frequent thread switches so counter races actually fire."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


def _program():
    return parse_program(
        """
program cachehammer
  real x(64), y(64)
  region L do i = 2, 63
    y(i) = x(i-1) + x(i+1)
    liveout y
  end region
end program
"""
    )


class TestCacheCounterIntegrity:
    def test_hammered_counters_account_for_every_lookup(self, tight_switching):
        # Regression: with unlocked `self.hits += 1` / `self.misses += 1`
        # the totals lose updates under contention and stop summing to
        # the number of lookups performed.
        cache = AnalysisCache()
        region = _program().regions[0]
        barrier = threading.Barrier(THREADS)

        def hammer(worker):
            barrier.wait()
            for i in range(LOOKUPS_PER_THREAD):
                # A handful of distinct keys so hits and misses mix.
                cache.get_or_compute(region, ("k", i % 5), lambda: i)

        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            for future in [pool.submit(hammer, t) for t in range(THREADS)]:
                future.result()

        total = THREADS * LOOKUPS_PER_THREAD
        assert cache.hits + cache.misses == total
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == total
        assert stats["entries"] == 5

    def test_concurrent_misses_share_one_value(self):
        # Duplicate-compute-on-concurrent-miss policy: racing misses may
        # both compute, but every caller must receive the *same* object
        # (first insert wins) so warm-hit aliasing stays intact.  The
        # barrier *inside* compute() forces both threads to be mid-miss
        # at once, which makes the pre-fix failure (each caller gets its
        # own object) deterministic rather than probabilistic.
        cache = AnalysisCache()
        region = _program().regions[0]
        in_compute = threading.Barrier(2, timeout=10)
        seen = []
        seen_lock = threading.Lock()

        def compute():
            in_compute.wait()
            return object()

        def miss_race(worker):
            value = cache.get_or_compute(region, "shared", compute)
            with seen_lock:
                seen.append(value)

        with ThreadPoolExecutor(max_workers=2) as pool:
            for future in [pool.submit(miss_race, t) for t in range(2)]:
                future.result()

        assert len({id(v) for v in seen}) == 1
        assert cache.peek(region, "shared") is seen[0]


class TestCacheConcurrentLabeling:
    def test_shared_cache_labels_identically_under_threads(self):
        # End-to-end shape of the daemon: many sessions labeling the
        # same region through one cache must agree with a single-thread
        # run and actually reuse entries (warm hits grow).
        program = _program()
        region = program.regions[0]
        reference = label_region(region, program=program)
        cache = AnalysisCache()
        results = []
        results_lock = threading.Lock()

        def label(worker):
            res = label_region(region, program=program, cache=cache)
            with results_lock:
                results.append(res)

        with ThreadPoolExecutor(max_workers=4) as pool:
            for future in [pool.submit(label, t) for t in range(12)]:
                future.result()

        for res in results:
            assert res.labels == reference.labels
            assert res.categories == reference.categories
        assert cache.hits > 0
        assert cache.misses > 0


class TestSignatureIndexSharing:
    def test_concurrent_users_see_one_group_per_signature(self, tight_switching):
        # Regression: groups used to be assigned lazily in group_of, with
        # ``gid = len(self._groups)`` read before the signature was
        # registered, so two threads sharing one index (through the
        # cache) could give two signatures the same group id and hand a
        # reference another signature's relation sets.
        body = "\n".join(f"    a(i + {k}) = a(i - {k}) + b(i)" for k in range(1, 13))
        program = parse_program(
            f"""
program sigrace
  real a(64), b(64)
  region L do i = 13, 50
{body}
    liveout a
  end region
end program
"""
        )
        region = program.regions[0]
        invariant = frozenset(read_only_variables(region))
        refs = [r for r in region.references if r.variable == "a"]
        signatures = [signature_of(r, region.index, invariant) for r in refs]
        for _ in range(100):
            index = SignatureIndex(region=region, invariant_symbols=invariant)
            barrier = threading.Barrier(THREADS)

            def groups(worker, index=index, barrier=barrier):
                barrier.wait()
                order = refs if worker % 2 else refs[::-1]
                return {r.uid: index.group_of(r) for r in order}

            with ThreadPoolExecutor(max_workers=THREADS) as pool:
                seen = [f.result() for f in [pool.submit(groups, t) for t in range(THREADS)]]
            assert all(s == seen[0] for s in seen)
            for ra, sa in zip(refs, signatures):
                for rb, sb in zip(refs, signatures):
                    same_group = index.group_of(ra) == index.group_of(rb)
                    assert same_group == (sa == sb)
