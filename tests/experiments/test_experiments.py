"""Shape tests for the paper-experiment harness (E1-E7 of DESIGN.md).

These run the *quick* variants (few steps, small replication): absolute
values shrink accordingly, but every qualitative claim of the paper must
hold — who wins, in which direction, and roughly by what factor.
"""

import pytest

from repro.experiments.compilers import compiler_comparison
from repro.experiments.figure1 import FIGURE1_MEASURES, figure1_data, render_figure1
from repro.experiments.measures import PAPER_TABLE1, PAPER_TABLE2, paper_ratios
from repro.experiments.tables import render_table, run_table
from repro.experiments.testprograms import (
    hugepage_usage_matrix,
    render_outcomes,
    static_vs_dynamic,
)
from repro.experiments.workloads import eos_problem_worklog, hydro_problem_worklog


@pytest.fixture(scope="module")
def eos_log():
    return eos_problem_worklog(quick=True)


@pytest.fixture(scope="module")
def hydro_log():
    return hydro_problem_worklog(quick=True)


@pytest.fixture(scope="module")
def table1(eos_log):
    return run_table("eos", eos_log, quick=True)


@pytest.fixture(scope="module")
def table2(hydro_log):
    return run_table("hydro", hydro_log, quick=True)


class TestTable1:
    """E1: the EOS problem (paper Table I)."""

    def test_huge_pages_actually_in_use(self, table1):
        assert table1.reports["with"].uses_huge_pages
        assert not table1.reports["without"].uses_huge_pages

    def test_dtlb_rate_scale_without_hp(self, table1):
        """Intensive rate: must land near the paper's 2.34e7/s."""
        got = table1.measured["without"]["dtlb_misses_per_s"]
        assert got == pytest.approx(2.34e7, rel=0.6)

    def test_dtlb_collapse_factor(self, table1):
        """The paper's 21x reduction, within a factor."""
        r = table1.ratio("dtlb_misses_per_s")
        assert 0.01 < r < 0.12  # paper: 0.047

    def test_time_barely_improves(self, table1):
        r = table1.ratio("time_s")
        assert 0.85 < r < 1.0  # paper: 0.935

    def test_sve_rate_near_paper(self, table1):
        got = table1.measured["without"]["sve_per_cycle"]
        assert got == pytest.approx(0.47, rel=0.25)

    def test_bandwidth_near_paper(self, table1):
        got = table1.measured["without"]["mem_gbytes_per_s"]
        assert got == pytest.approx(4.19, rel=0.5)

    def test_render(self, table1):
        text = render_table(table1)
        assert "TABLE I" in text and "DTLB" in text


class TestTable2:
    """E2: the 3-d Hydro problem (paper Table II)."""

    def test_dtlb_rate_scale_without_hp(self, table2):
        got = table2.measured["without"]["dtlb_misses_per_s"]
        assert got == pytest.approx(2.42e6, rel=0.6)

    def test_dtlb_reduction_modest(self, table2):
        """Hydro's reduction is ~3x, far milder than the EOS's 21x."""
        r = table2.ratio("dtlb_misses_per_s")
        assert 0.15 < r < 0.6  # paper: 0.324

    def test_time_unchanged(self, table2):
        r = table2.ratio("time_s")
        assert 0.95 < r < 1.02  # paper: 0.998

    def test_sve_rate_near_paper(self, table2):
        got = table2.measured["without"]["sve_per_cycle"]
        assert got == pytest.approx(0.11, rel=0.35)

    def test_bandwidth_near_paper(self, table2):
        got = table2.measured["without"]["mem_gbytes_per_s"]
        assert got == pytest.approx(10.1, rel=0.5)

    def test_render(self, table2):
        assert "TABLE II" in render_table(table2)


class TestFigure1:
    """E3: the ratio bar chart."""

    def test_asymmetry_between_problems(self, table1, table2):
        data = figure1_data(table1, table2)
        # the EOS DTLB ratio is far lower than the hydro one
        assert data.eos["dtlb_misses_per_s"] < 0.5 * data.hydro["dtlb_misses_per_s"]

    def test_everything_else_near_one(self, table1, table2):
        data = figure1_data(table1, table2)
        for problem in (data.eos, data.hydro):
            for key in FIGURE1_MEASURES:
                if key == "dtlb_misses_per_s":
                    continue
                assert 0.8 < problem[key] < 1.2, key

    def test_hydro_bars_near_one(self, table1, table2):
        """Hydro's non-DTLB bars sit within 10 % of one (the EOS bars
        may spread to 20 %)."""
        data = figure1_data(table1, table2)
        for key in FIGURE1_MEASURES:
            if key != "dtlb_misses_per_s":
                assert 0.9 < data.hydro[key] < 1.1, key

    def test_paper_reference_ratios(self):
        assert paper_ratios(PAPER_TABLE1)["dtlb_misses_per_s"] == pytest.approx(
            0.047, abs=0.001)
        assert paper_ratios(PAPER_TABLE2)["dtlb_misses_per_s"] == pytest.approx(
            0.324, abs=0.001)

    def test_render(self, table1, table2):
        text = render_figure1(figure1_data(table1, table2))
        assert "FIGURE 1" in text
        assert "#" in text and "=" in text


class TestTableSubarrayAblation:
    """The with-HP residual DTLB rate rises with the number of hot
    Helmholtz coefficient arrays, whose huge pages compete for the 16
    L1 entries.  Disabled sessions: the sub-array count is not part of
    a replay's cache key, so a shared session would answer every count
    with the first one's replay."""

    def test_residual_rate_rises_with_subarrays(self, eos_log, monkeypatch):
        import repro.perfmodel.patterns as patterns
        from repro.perfmodel.pipeline import PerformancePipeline
        from repro.perfmodel.session import ReplaySession
        from repro.toolchain.compiler import FUJITSU

        rates = []
        for nsub in (6, 12, 18):
            monkeypatch.setattr(patterns.TraceBuilder, "N_TABLE_SUBARRAYS",
                                nsub)
            report = PerformancePipeline(
                eos_log, FUJITSU, replication=2,
                session=ReplaySession.disabled()).run()
            rates.append(report.region("eos")["dtlb_misses_per_s"])
        assert rates[0] < rates[1] < rates[2]


class TestCompilerComparison:
    """E4: section II narrative."""

    @pytest.fixture(scope="class")
    def comparison(self, eos_log):
        return compiler_comparison(eos_log, replication=2)

    def test_arm_about_2_5x_slower(self, comparison):
        assert comparison.arm_vs_gcc == pytest.approx(2.5, rel=0.25)

    def test_cray_negligible_difference(self, comparison):
        assert comparison.cray_vs_gcc == pytest.approx(1.0, abs=0.1)

    def test_xeon_about_3x_faster(self, comparison):
        assert comparison.ookami_vs_xeon == pytest.approx(3.0, rel=0.4)

    def test_render(self, comparison):
        assert "Arm vs GCC" in comparison.render()


class TestToyPrograms:
    """E6: static vs dynamic test programs."""

    def test_gnu_dynamic_yes_static_no(self):
        outcomes = static_vs_dynamic("gnu")
        dynamic, static = outcomes
        assert dynamic.uses_huge_pages
        assert not static.uses_huge_pages
        assert dynamic.anon_huge_kb > 0
        assert static.anon_huge_kb == 0

    def test_cray_same_behaviour(self):
        dynamic, static = static_vs_dynamic("cray")
        assert dynamic.uses_huge_pages and not static.uses_huge_pages

    def test_render(self):
        text = render_outcomes(static_vs_dynamic("gnu"), "TOYS")
        assert "HUGE PAGES" in text and "no huge pages" in text


class TestHugePageMatrix:
    """E5: the full usage matrix."""

    @pytest.fixture(scope="class")
    def matrix(self):
        return {o.label: o for o in hugepage_usage_matrix()}

    def test_gnu_cray_never(self, matrix):
        for label, outcome in matrix.items():
            if label.startswith(("FLASH/gnu", "FLASH/cray")):
                assert not outcome.uses_huge_pages, label

    def test_fujitsu_default_yes(self, matrix):
        assert matrix["FLASH/fujitsu (default)"].uses_huge_pages

    def test_fujitsu_knolargepage_no(self, matrix):
        assert not matrix["FLASH/fujitsu (-Knolargepage)"].uses_huge_pages

    def test_fujitsu_xos_none_no(self, matrix):
        assert not matrix["FLASH/fujitsu (XOS_MMM_L_HPAGE_TYPE=none)"].uses_huge_pages

    def test_unmodified_node_yes(self, matrix):
        assert matrix["FLASH/fujitsu (unmodified node)"].uses_huge_pages


class TestPortingStudy:
    """Section II porting narrative: out of the box + scaling."""

    @pytest.fixture(scope="class")
    def porting(self, eos_log):
        from repro.experiments.porting import porting_study

        return porting_study(eos_log)

    def test_every_compiler_runs(self, porting):
        assert set(porting.compiler_times_s) == {"gnu", "cray", "arm",
                                                 "fujitsu"}
        assert all(t > 0 for t in porting.compiler_times_s.values())

    def test_scaled_reasonably_well(self, porting):
        """Monotone speedup with decent (but imperfect) 48-rank efficiency."""
        times = porting.scaling_times_s
        ranks = sorted(times)
        assert all(times[a] > times[b] for a, b in zip(ranks, ranks[1:]))
        assert 0.5 < porting.efficiency(48) <= 1.02

    def test_render(self, porting):
        text = porting.render()
        assert "out of the box" in text and "48 ranks" in text
