"""Tests for harness plumbing: workload caching, CLI, measures module."""

import pytest

from repro.experiments.measures import (
    MEASURE_LABELS,
    PAPER_TABLE1,
    PAPER_TABLE2,
    paper_ratios,
)
from repro.experiments.workloads import eos_problem_worklog


class TestMeasures:
    def test_labels_cover_tables(self):
        assert set(MEASURE_LABELS) == set(PAPER_TABLE1["with"])
        assert set(MEASURE_LABELS) == set(PAPER_TABLE2["without"])

    def test_paper_values_sane(self):
        """Transcription check against the paper's tables."""
        assert PAPER_TABLE1["without"]["flash_timer_s"] == pytest.approx(339.032)
        assert PAPER_TABLE2["with"]["flash_timer_s"] == pytest.approx(1176.312)

    def test_ratio_helper(self):
        r = paper_ratios(PAPER_TABLE1)
        assert r["time_s"] == pytest.approx(65.2 / 69.7)


class TestWorkloadCaching:
    def test_quick_log_cached_and_stable(self):
        a = eos_problem_worklog(quick=True)
        b = eos_problem_worklog(quick=True)
        assert a.n_steps == b.n_steps
        assert [r.slots for r in a.steps] == [r.slots for r in b.steps]

    def test_no_cache_builds_fresh(self):
        log = eos_problem_worklog(quick=True, use_cache=False, steps=2)
        assert log.n_steps == 2

    def test_log_structure(self):
        log = eos_problem_worklog(quick=True)
        rec = log.steps[0]
        units = {inv.unit for inv in rec.invocations}
        # the supernova workload exercises all units
        assert {"guardcell", "hydro_sweep", "eos", "gravity", "flame"} <= units
        eos_invs = [i for i in rec.invocations if i.unit == "eos"]
        assert all(i.newton_iterations > 0 for i in eos_invs)


class TestCLI:
    def test_toys_command(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["toys"]) == 0
        out = capsys.readouterr().out
        assert "HUGE PAGES" in out and "no huge pages" in out

    def test_matrix_command(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["matrix"]) == 0
        out = capsys.readouterr().out
        assert "FLASH/fujitsu (default)" in out

    def test_bad_command_rejected(self):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["nonsense"])

    def test_list_command(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        # experiments, workloads, and units all enumerate with descriptions
        for name in ("table1", "figure1", "porting"):
            assert name in out
        for name in ("eos", "hydro", "sod"):
            assert name in out
        assert "workloads:" in out
        assert "hydrodynamics" in out
        assert "TLB" in out

    def test_experiment_registry_dispatch(self):
        from repro.experiments.registry import experiment, experiments
        from repro.util.errors import ConfigurationError

        names = [spec.name for spec in experiments()]
        assert names[0] == "all"
        assert {"table1", "table2", "figure1", "compilers", "toys",
                "matrix", "porting"} <= set(names)
        assert all(spec.description for spec in experiments())
        with pytest.raises(ConfigurationError, match="did you mean 'table"):
            experiment("table")
