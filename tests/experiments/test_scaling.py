"""Tests for the rank-decomposed scaling sweep."""

import hashlib

import pytest

from repro.experiments.porting import PortingResult
from repro.experiments.scaling import (node_contention, scaling_study,
                                       sedov_fabric_builder, serial_identity)
from repro.perfmodel.session import ReplaySession
from repro.toolchain.compiler import FUJITSU


#: (mode, ranks) -> (halo bytes, modelled time_s with / without huge
#: pages, per-rank DTLB misses with / without) of the quick sweep.
#: Deterministic model outputs: times and misses are pinned at rtol
#: 1e-9, halo bytes exactly.
QUICK_POINTS = {
    ("strong", 1): (0, (0.14147572095990166, 0.1414770502754572),
                    ((303132.0,), (304004.0,))),
    ("strong", 2): (368640, (0.07078037558217304, 0.07078236955550636),
                    ((151576.0, 151580.0), (152120.0, 152888.0))),
    ("strong", 4): (737280, (0.03544355489330875, 0.035444884208864304),
                    ((75800.0, 75800.0, 75800.0, 75804.0),
                     (76164.0, 76676.0, 76548.0, 76164.0))),
    ("weak", 1): (0, (0.03536893176441985, 0.0353694683688643),
                  ((75784.0,), (76136.0,))),
    ("weak", 2): (184320, (0.03539669211997541, 0.0353980397288643),
                  ((75792.0, 75792.0), (76164.0, 76676.0))),
    ("weak", 4): (737280, (0.03544355489330875, 0.035444884208864304),
                  ((75800.0, 75800.0, 75800.0, 75804.0),
                   (76164.0, 76676.0, 76548.0, 76164.0))),
}
#: SHA-256 of the quick sweep's rendered table
QUICK_TABLE_SHA256 = ("297703f24277342c43b1492e8f5f7a2609e0d204aa850af404af"
                      "68e70a60a531")


@pytest.fixture(scope="module")
def study():
    session = ReplaySession(persist=False)
    return scaling_study(quick=True, rank_counts=(1, 2), steps=1,
                         session=session)


class TestScalingStudy:
    def test_points_cover_both_modes_and_regimes(self, study):
        for points in (study.strong, study.weak):
            assert sorted(points) == [1, 2]
            for p, point in points.items():
                assert set(point["time_s"]) == {"with", "without"}
                assert len(point["per_rank_dtlb"]["with"]) == p
                assert len(point["per_rank_dtlb"]["without"]) == p

    def test_page_regimes_follow_flags(self, study):
        """The Fujitsu default launches on huge pages; -Knolargepage
        keeps every rank on base pages."""
        for point in list(study.strong.values()) + list(study.weak.values()):
            assert all(point["huge_pages"]["with"])
            assert not any(point["huge_pages"]["without"])

    def test_single_rank_has_no_halo_traffic(self, study):
        assert study.strong[1]["halo_bytes"] == 0
        assert study.strong[2]["halo_bytes"] > 0

    def test_render_has_tables_and_contention(self, study):
        text = study.render()
        assert "strong scaling" in text
        assert "weak scaling" in text
        assert "node hugetlb pool contention" in text
        assert "exhaustion degrades only the ranks" in text

    def test_efficiency_anchored_at_smallest_rank_count(self, study):
        assert study.speedup("strong", "with", 1) == 1.0
        assert study.efficiency("strong", "with", 1) == 1.0


class TestQuickSweepPinned:
    """The quick sweep as ``python -m repro.experiments scaling --quick``
    runs it (1/2/4 ranks, 2 steps), held to its recorded outputs."""

    @pytest.fixture(scope="class")
    def quick(self):
        session = ReplaySession(persist=False)
        return (scaling_study(quick=True, session=session),
                serial_identity(session=session))

    def test_one_rank_fabric_matches_serial_spine(self, quick):
        _, identity = quick
        assert identity["digest_identical"]
        assert identity["counters_identical"]

    def test_points_pinned(self, quick):
        study, _ = quick
        assert sorted(study.strong) == sorted(study.weak) == [1, 2, 4]
        for (mode, ranks), (halo, times, dtlb) in QUICK_POINTS.items():
            point = getattr(study, mode)[ranks]
            assert point["halo_bytes"] == halo
            assert ((point["time_s"]["with"], point["time_s"]["without"])
                    == pytest.approx(times, rel=1e-9, abs=0))
            for regime, misses in zip(("with", "without"), dtlb):
                assert (point["per_rank_dtlb"][regime]
                        == pytest.approx(list(misses), rel=1e-9, abs=0))

    def test_contention_degrades_ranks_2_and_3(self, quick):
        study, _ = quick
        assert study.contention["degraded"] == [2, 3]

    def test_table_text_pinned(self, quick):
        study, _ = quick
        text = study.render()
        assert hashlib.sha256(text.encode()).hexdigest() == QUICK_TABLE_SHA256


class TestNodeContention:
    def test_exhaustion_degrades_only_late_ranks(self):
        """48 static 2 MiB pages serve two 40 MiB arenas (20 pages
        each); ranks 2 and 3 hit the dry pool and fall back per
        process — earlier residents keep their huge pages."""
        c = node_contention(ranks_per_node=4, pool_pages=48, arena_mib=40)
        assert c["degraded"] == [2, 3]
        assert [r["hugetlb"] for r in c["ranks"]] == [True, True,
                                                      False, False]
        assert c["fallback_total"] == 2

    def test_ample_pool_degrades_nobody(self):
        c = node_contention(ranks_per_node=2, pool_pages=64, arena_mib=16)
        assert c["degraded"] == []
        assert c["fallback_total"] == 0


class TestSerialIdentity:
    def test_one_rank_fabric_is_bit_identical(self):
        out = serial_identity(steps=1, session=ReplaySession(persist=False))
        assert out["digest_identical"]
        assert out["counters_identical"]
        assert out["fabric"] == out["serial"]


class TestRankSignatureCacheKeys:
    def test_same_signature_hits_the_cache(self):
        session = ReplaySession(persist=False)
        builder = sedov_fabric_builder(2, 2)
        from repro.mpisim.fabric import Fabric
        fabric = Fabric(builder, 1)
        log = fabric.attach_worklogs(helmholtz_eos=False)[0]
        fabric.evolve(nend=1)
        for _ in range(2):
            session.pipeline(log, FUJITSU, replication=1,
                             rank_signature="rank0/1@rpn1").run()
        assert session.stats.replays == 1
        assert session.stats.memory_hits == 1

    def test_distinct_signatures_never_share_a_config(self):
        """Identical shard content on different decompositions must not
        serve each other's cached config result.  (The trace layer below
        it is content-addressed and may still share — identical traces
        under identical geometry give identical counters by
        construction, whatever rank produced them.)"""
        session = ReplaySession(persist=False)
        builder = sedov_fabric_builder(2, 2)
        from repro.mpisim.fabric import Fabric
        fabric = Fabric(builder, 1)
        log = fabric.attach_worklogs(helmholtz_eos=False)[0]
        fabric.evolve(nend=1)
        for sig in ("rank0/1@rpn1", "rank0/2@rpn2"):
            session.pipeline(log, FUJITSU, replication=1,
                             rank_signature=sig).run()
        assert session.stats.configs == 2
        assert session.stats.memory_hits == 0  # distinct config keys


class TestPortingScalingAnchor:
    def test_sweep_not_starting_at_one_rank(self):
        result = PortingResult(
            compiler_times_s={},
            scaling_times_s={2: 10.0, 4: 5.5, 8: 3.0})
        assert result.speedup(2) == 1.0
        assert result.efficiency(2) == 1.0
        assert result.speedup(4) == pytest.approx(10.0 / 5.5)
        assert result.efficiency(4) == pytest.approx((10.0 / 5.5) / 2)

    def test_backward_compatible_at_rank_one(self):
        result = PortingResult(
            compiler_times_s={},
            scaling_times_s={1: 8.0, 2: 4.0})
        assert result.speedup(1) == 1.0
        assert result.speedup(2) == 2.0
        assert result.efficiency(2) == 1.0
