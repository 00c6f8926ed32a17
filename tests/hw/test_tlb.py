"""Tests for the TLB simulator, incl. cross-check against a naive model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hw.a64fx import A64FX, TLBGeometry, TLBLevelSpec
from repro.hw.tlb import TLBSimulator, TLBStats
from repro.hw.trace import PageTrace

P = 65536


def trace_of(pages, size=P):
    pages = np.asarray(pages, dtype=np.int64) * size
    return PageTrace.from_accesses(pages, np.full(pages.shape, size, np.int64))


def tiny_geometry(l1_entries=4, l2_entries=8, l2_assoc=2):
    return TLBGeometry(
        l1=TLBLevelSpec(entries=l1_entries, assoc=l1_entries, miss_penalty=7.0),
        l2=TLBLevelSpec(entries=l2_entries, assoc=l2_assoc, miss_penalty=0.0),
        walk_cycles=90.0,
    )


class NaiveLRU:
    """Reference model: plain lists, obviously-correct LRU."""

    def __init__(self, geometry):
        self.g = geometry
        self.l1 = [[] for _ in range(geometry.l1.n_sets)]
        self.l2 = [[] for _ in range(geometry.l2.n_sets)]

    def run(self, trace):
        stats = TLBStats()
        for page, size, w in zip(trace.page, trace.size, trace.weight):
            stats.accesses += int(w)
            vpn = int(page) // int(size)
            s1 = self.l1[vpn % self.g.l1.n_sets]
            if page in s1:
                s1.remove(page)
                s1.append(page)
                continue
            stats.l1_misses += 1
            s2 = self.l2[vpn % self.g.l2.n_sets]
            if page in s2:
                s2.remove(page)
                s2.append(page)
            else:
                stats.l2_misses += 1
                if len(s2) >= self.g.l2.assoc:
                    s2.pop(0)
                s2.append(page)
            if len(s1) >= self.g.l1.assoc:
                s1.pop(0)
            s1.append(page)
        return stats


class TestBasics:
    def test_cold_misses(self):
        sim = TLBSimulator(tiny_geometry())
        stats = sim.run(trace_of([1, 2, 3]))
        assert stats.l1_misses == 3
        assert stats.l2_misses == 3

    def test_hit_after_fill(self):
        sim = TLBSimulator(tiny_geometry())
        stats = sim.run(trace_of([1, 2, 1, 2]))
        assert stats.l1_misses == 2

    def test_capacity_eviction_lru(self):
        # L1 holds 4; touching 5 pages cyclically thrashes it
        sim = TLBSimulator(tiny_geometry(l1_entries=4))
        stats = sim.run(trace_of([1, 2, 3, 4, 5] * 4))
        assert stats.l1_misses == 20  # every access misses L1

    def test_l2_catches_l1_evictions(self):
        sim = TLBSimulator(tiny_geometry(l1_entries=2, l2_entries=8, l2_assoc=8))
        stats = sim.run(trace_of([1, 2, 3] * 3))
        assert stats.l1_misses == 9
        assert stats.l2_misses == 3  # cold only; L2 holds all three

    def test_weighted_accesses(self):
        sim = TLBSimulator(tiny_geometry())
        stats = sim.run(trace_of([1, 1, 1, 2]))
        assert stats.accesses == 4
        assert stats.l1_misses == 2

    def test_reset(self):
        sim = TLBSimulator(tiny_geometry())
        sim.run(trace_of([1, 2]))
        sim.reset()
        stats = sim.run(trace_of([1]))
        assert stats.l1_misses == 1
        assert sim.stats.accesses == 1

    def test_empty_trace(self):
        sim = TLBSimulator(tiny_geometry())
        stats = sim.run(PageTrace.empty())
        assert stats.accesses == 0


class TestHugePagesEffect:
    """The paper's core phenomenon, in miniature."""

    def test_huge_pages_collapse_misses(self):
        # 64 MiB streamed working set
        n_bytes = 64 << 20
        base = trace_of(np.arange(n_bytes // P), size=P).repeated(3)
        huge = trace_of(np.arange(n_bytes // (2 << 20)), size=2 << 20).repeated(3)
        sim = TLBSimulator(A64FX.tlb)
        base_stats = sim.run(base)
        sim.reset()
        huge_stats = sim.run(huge)
        assert huge_stats.l1_misses < base_stats.l1_misses / 20

    def test_working_set_within_reach_mostly_hits(self):
        # 16 entries x 64 KiB = 1 MiB L1 reach; sweep half of that
        pages = np.tile(np.arange(8), 10)
        sim = TLBSimulator(A64FX.tlb)
        stats = sim.run(trace_of(pages))
        assert stats.l1_misses == 8  # cold only


class TestSteadyState:
    def test_steady_state_below_cold(self):
        sim = TLBSimulator(A64FX.tlb)
        step = trace_of(np.tile(np.arange(12), 4))
        cold = sim.run(step)
        steady = sim.run(step)  # the same step again, on a warm TLB
        assert steady.l1_misses <= cold.l1_misses

    def test_scaled_extrapolation(self):
        stats = TLBStats(accesses=100, l1_misses=10, l2_misses=1)
        big = stats.scaled(50)
        assert big.l1_misses == 500
        assert big.accesses == 5000


class TestExposedCycles:
    def test_exposed_cycles_formula(self):
        g = tiny_geometry()
        stats = TLBStats(accesses=100, l1_misses=10, l2_misses=2)
        expected = (10 * 7.0 + 2 * 90.0) * g.exposed_fraction
        assert stats.exposed_walk_cycles(g) == pytest.approx(expected)

    def test_paper_scale_exposed_cost_per_miss(self):
        """The A64FX defaults imply ~5-10 exposed cycles per L1 miss for
        L2-resident working sets, matching the paper's implied deltas."""
        g = A64FX.tlb
        stats = TLBStats(accesses=1000, l1_misses=100, l2_misses=10)
        per_miss = stats.exposed_walk_cycles(g) / stats.l1_misses
        assert 2.0 < per_miss < 15.0


class TestMultiGeometryBatch:
    """run_steady_segments_multi shares one stack-distance pass across
    geometries; its contract is exact agreement with per-geometry calls."""

    def _geometries(self):
        from dataclasses import replace
        geos = [tiny_geometry(l1_entries=e) for e in (2, 4, 8, 16)]
        geos.append(TLBGeometry(
            l1=TLBLevelSpec(entries=8, assoc=2, miss_penalty=7.0),
            l2=TLBLevelSpec(entries=16, assoc=4, miss_penalty=0.0),
            walk_cycles=90.0))
        geos.append(A64FX.tlb)
        geos.append(replace(A64FX.tlb, l2=replace(A64FX.tlb.l2, entries=512)))
        geos.append(A64FX.tlb)  # duplicate exercises the shared-result path
        return geos

    def test_bit_identical_to_serial_sweep(self):
        from repro.hw.tlb import run_steady_segments, run_steady_segments_multi
        rng = np.random.default_rng(11)
        traces = [trace_of(rng.integers(0, p, n))
                  for n, p in ((600, 5), (900, 60), (400, 300))]
        for streams in (None, [0, 0, 1], [0, 1, 2]):
            batched = run_steady_segments_multi(self._geometries(), traces,
                                                streams)
            for geo, got in zip(self._geometries(), batched):
                want = run_steady_segments(geo, traces, streams)
                assert [(s.accesses, s.l1_misses, s.l2_misses) for s in got] \
                    == [(s.accesses, s.l1_misses, s.l2_misses) for s in want]

    def test_degenerate_inputs(self):
        from repro.hw.tlb import run_steady_segments_multi
        geos = self._geometries()
        assert run_steady_segments_multi([], [trace_of([1])]) == []
        assert run_steady_segments_multi(geos, []) == [[] for _ in geos]
        rows = run_steady_segments_multi(geos, [PageTrace.empty()])
        assert all(row[0].l1_misses == 0 for row in rows)

    def test_results_are_independent_copies(self):
        """Duplicate geometries must not alias mutable stats objects."""
        from repro.hw.tlb import run_steady_segments_multi
        geos = [A64FX.tlb, A64FX.tlb]
        rows = run_steady_segments_multi(geos, [trace_of([1, 2, 3])])
        rows[0][0].l1_misses = -99
        assert rows[1][0].l1_misses != -99


@settings(max_examples=60, deadline=None)
@given(
    pages=st.lists(st.integers(0, 30), min_size=1, max_size=300),
    l1e=st.sampled_from([2, 4, 8]),
    l2e=st.sampled_from([4, 8, 16]),
    l2a=st.sampled_from([1, 2, 4]),
)
def test_matches_naive_reference(pages, l1e, l2e, l2a):
    geometry = tiny_geometry(l1_entries=l1e, l2_entries=l2e, l2_assoc=l2a)
    t = trace_of(pages)
    fast = TLBSimulator(geometry).run(t)
    slow = NaiveLRU(geometry).run(t)
    assert (fast.accesses, fast.l1_misses, fast.l2_misses) == (
        slow.accesses,
        slow.l1_misses,
        slow.l2_misses,
    )


@settings(max_examples=30, deadline=None)
@given(pages=st.lists(st.integers(0, 50), min_size=1, max_size=200))
def test_miss_bounds(pages):
    """Misses never exceed deduplicated events; L2 misses never exceed L1."""
    t = trace_of(pages)
    stats = TLBSimulator(A64FX.tlb).run(t)
    assert stats.l2_misses <= stats.l1_misses <= t.n_events
    assert stats.l1_misses >= t.unique_pages() > 0 or t.n_events == 0
