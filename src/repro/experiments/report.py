"""Assembling the full experiment report (used by __main__ and docs)."""

from __future__ import annotations

from repro.experiments.compilers import compiler_comparison
from repro.experiments.figure1 import figure1_data, render_figure1
from repro.experiments.tables import render_table, run_table
from repro.experiments.testprograms import (
    hugepage_usage_matrix,
    render_outcomes,
    static_vs_dynamic,
)
from repro.experiments.workloads import eos_problem_worklog, hydro_problem_worklog
from repro.perfmodel.session import ReplaySession, default_session

#: configurations the quick full report prices through the session
QUICK_REPORT_CONFIGS = 22
#: the cold-replay budget: at most this many distinct TLB replays may
#: execute for the whole quick matrix (gated by
#: tests/experiments/test_replay_sharing.py and the serving soak harness)
QUICK_REPORT_REPLAY_BUDGET = 15


def full_report(*, quick: bool = False,
                session: ReplaySession | None = None) -> str:
    """Regenerate every table and figure; returns the text report.

    Every experiment shares one replay session, so each distinct
    (trace, layout, TLB geometry) combination is simulated exactly once
    across the whole report — and, with a persistent store, at most once
    across repeated report runs.
    """
    session = session if session is not None else default_session()
    sections = []

    eos_log = eos_problem_worklog(quick=quick)
    hydro_log = hydro_problem_worklog(quick=quick)

    table1 = run_table("eos", eos_log, quick=quick, session=session)
    sections.append(render_table(table1))

    table2 = run_table("hydro", hydro_log, quick=quick, session=session)
    sections.append(render_table(table2))

    sections.append(render_figure1(figure1_data(table1, table2)))

    sections.append(compiler_comparison(eos_log,
                                        replication=2 if quick else 4,
                                        session=session).render())

    sections.append(render_outcomes(
        static_vs_dynamic("gnu", session=session)
        + static_vs_dynamic("cray", session=session),
        "STATIC VS DYNAMIC TOY PROGRAMS (section IV)"))

    sections.append(render_outcomes(
        hugepage_usage_matrix(session=session),
        "HUGE-PAGE USAGE MATRIX (sections III-IV)"))

    from repro.experiments.geometry import geometry_study

    sections.append(geometry_study(eos_log, replication=1 if quick else 2,
                                   session=session).render())

    from repro.experiments.porting import porting_study

    sections.append(porting_study(eos_log, session=session).render())

    return "\n\n".join(sections)


__all__ = ["full_report"]
