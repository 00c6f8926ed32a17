"""A traced cold report op: its sections sum to the op.

Prepares this commit's quick WorkLogs on first use (about a minute), like
the benchmark's own first run.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from perfbench import harness
from perfbench.layers import report_hooks
from perfbench.spans import Patches, Recorder, breakdown

ROOT = Path(__file__).resolve().parents[2]
SECTIONS = ("experiments.workloads", "experiments.tables",
            "experiments.figure1", "experiments.compilers",
            "experiments.testprograms", "experiments.geometry",
            "experiments.porting")


@pytest.fixture
def prepared_run(monkeypatch):
    monkeypatch.chdir(ROOT)
    for key in list(os.environ):
        if key.startswith("REPRO_"):
            monkeypatch.delenv(key)
    monkeypatch.setenv("REPRO_REPLAY_JOBS", "1")
    prepared_dir, reference = harness.prepared(ROOT)
    with harness.run_dir(ROOT, prepared_dir, "selftest") as run:
        yield run


def test_traced_report_sections_sum_to_the_op(prepared_run):
    from repro.experiments.report import full_report
    from repro.perfmodel.session import ReplaySession

    rec = Recorder()
    with Patches(rec, report_hooks()):
        with rec.op("cold"):
            with ReplaySession(store_dir=prepared_run / "store") as session:
                full_report(quick=True, session=session)
    b = breakdown(rec, "cold")
    sections = sum(b.total_ms[name] for name in SECTIONS)
    covered = 100.0 - b.unattributed_pct
    assert sections == pytest.approx(b.op_ms * covered / 100.0, rel=1e-9)
    assert b.unattributed_pct < 5.0
    # the exact work of a cold quick report
    assert b.calls["toolchain.launch"] == 16
    assert b.calls["perfmodel.digest"] == 182
    assert b.counts["perfmodel.digest.bytes"] == 37_349_328
    assert b.calls["perfmodel.synthesis"] == 8
