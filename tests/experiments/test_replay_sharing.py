"""Replay sharing across the experiment harness.

The replication probe used to run a full pipeline and throw its replay
away; through the session it must be a cache hit for the measurement
runs, and the whole quick report must fit a fixed distinct-replay budget
(22 configurations priced, at most 15 replays executed).  Neither the
cache state nor the process-pool executor may change the report text,
which is pinned to the SHA-256 the report baseline records.
"""

import dataclasses
import hashlib
import json
import time
from collections import Counter
from pathlib import Path

import pytest

from repro.experiments.report import (
    QUICK_REPORT_CONFIGS,
    QUICK_REPORT_REPLAY_BUDGET,
    full_report,
)
from repro.experiments.tables import run_table
from repro.experiments.workloads import eos_problem_worklog, hydro_problem_worklog
from repro.perfmodel.parallel import ReplayExecutor
from repro.perfmodel.session import ReplaySession, SessionStats, default_session

#: the committed record of the quick report; perfbench's ``report``
#: workload checks its output against the same ``text_sha256``
REPORT_BASELINE = (Path(__file__).resolve().parents[2]
                   / "benchmarks" / "baselines" / "BENCH_report.json")

#: floor on (disabled-session wall / warm-store wall) for the quick
#: report: the warm store replays nothing while the disabled session
#: replays every configuration, so this sits far above the floor
#: (~25x on a 2-vCPU host) unless the cache stopped answering
MIN_WARM_SPEEDUP = 1.8


@pytest.fixture(scope="module")
def eos_log():
    return eos_problem_worklog(quick=True)


@dataclasses.dataclass
class Leg:
    """One full quick report: its text, wall, and session counters."""

    text: str
    wall_s: float
    stats: SessionStats
    session: ReplaySession
    executor: ReplayExecutor | None


def _run_report(session: ReplaySession) -> Leg:
    t0 = time.perf_counter()
    text = full_report(quick=True, session=session)
    wall = time.perf_counter() - t0
    executor = session._executor
    session.close()
    return Leg(text, wall, dataclasses.replace(session.stats), session,
               executor)


@pytest.fixture(scope="module")
def serial_report(tmp_path_factory):
    """The quick report three ways on the serial executor: a disabled
    session, a cold session over an empty store, and a warm session
    over the cold run's stores."""
    # the WorkLogs are shared by every leg; load them before the walls
    eos_problem_worklog(quick=True)
    hydro_problem_worklog(quick=True)
    store = str(tmp_path_factory.mktemp("report-store"))
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_REPLAY_JOBS", "1")
        return {"disabled": _run_report(ReplaySession.disabled()),
                "cold": _run_report(ReplaySession(store_dir=store)),
                "warm": _run_report(ReplaySession(store_dir=store))}


@pytest.fixture(scope="module")
def pooled_report(tmp_path_factory):
    """The quick report on a two-worker pool, twice over one trace
    store: cold, then warm over a fresh replay store — every replay
    runs again, but no bundle is synthesised again."""
    root = tmp_path_factory.mktemp("pooled")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_REPLAY_JOBS", "2")
        return {leg: _run_report(ReplaySession(
                    store_dir=str(root / f"replays-{leg}"),
                    trace_dir=root / "traces"))
                for leg in ("cold", "warm")}


def test_quick_probe_replay_is_shared(eos_log):
    """In quick mode the probe runs at the replication cap, so whenever
    the cap wins (both paper problems hit it) the probe's replay IS the
    without-HP cell's replay — one distinct replay, not two."""
    session = ReplaySession(persist=False)
    result = run_table("eos", eos_log, quick=True, session=session)
    assert result.replication == 4  # the cap won, as at the seed
    # three pipelines priced: probe, with-HP, without-HP ...
    assert session.stats.configs == 3
    # ... but the without-HP cell reused the probe's replay
    assert session.stats.memory_hits == 1
    assert session.stats.replays == 2


def test_repeated_table_is_free(eos_log):
    session = ReplaySession(persist=False)
    first = run_table("eos", eos_log, quick=True, session=session)
    replays = session.stats.replays
    second = run_table("eos", eos_log, quick=True, session=session)
    assert session.stats.replays == replays  # zero new replays
    assert second.measured == first.measured
    assert second.replication == first.replication


def test_full_quick_report_replay_budget(serial_report):
    """The whole report prices 22 configurations; the session must cover
    them with at most 15 distinct replays (the seed ran one per config)
    from 8 trace syntheses.  The geometry sweep's 8 configurations are
    distinct TLB geometries, so they cannot dedupe at the replay level —
    their sharing happens below this counter, in the batched
    stack-distance pass."""
    cold = serial_report["cold"]
    assert cold.stats.configs == QUICK_REPORT_CONFIGS
    assert cold.stats.replays <= QUICK_REPORT_REPLAY_BUDGET
    assert cold.stats.synthesis_count == 8

    # standalone registry runners use the same quick parameters as the
    # report (the serving layer depends on this: any quick request mix
    # stays within the report's replay budget), so re-running one through
    # the same session replays nothing new
    from repro.experiments.registry import experiment
    from repro.perfmodel.session import session_scope

    session = cold.session
    replays = session.stats.replays
    with session_scope(session, close=True):
        experiment("compilers").run(quick=True)
    assert session.stats.replays == replays


def test_report_text_pinned_across_cache_states(serial_report):
    texts = {leg.text for leg in serial_report.values()}
    assert len(texts) == 1
    baseline = json.loads(REPORT_BASELINE.read_text())
    assert (hashlib.sha256(texts.pop().encode()).hexdigest()
            == baseline["session"]["text_sha256"])


def test_warm_store_replays_nothing(serial_report):
    warm = serial_report["warm"].stats
    assert warm.replays == 0
    assert warm.synthesis_count == 0
    assert warm.disk_hits == 15


def test_cold_store_holds_only_what_is_read_back(serial_report):
    """A store-backed serial cold report persists exactly what a warm
    session loads back — the 15 replayed configurations and 3 memos —
    and keeps trace-level replay stats in memory."""
    root = serial_report["cold"].session.store.root
    assert list(root.glob("**/trace-*.pkl")) == []
    kinds = Counter(p.name.split("-")[0] for p in root.glob("*/*.pkl"))
    assert kinds == {"cfg": 15, "memo": 3}


def test_serial_syntheses_save_through_the_session(serial_report):
    """Every bundle a serial cold report synthesises is saved through
    the session's own trace store."""
    cold = serial_report["cold"]
    saves = cold.session.trace_store.stats.saves
    assert saves == cold.stats.synthesis_count == 8


def test_warm_store_speedup_floor(serial_report):
    ratio = serial_report["disabled"].wall_s / serial_report["warm"].wall_s
    assert ratio >= MIN_WARM_SPEEDUP, f"warm-store speedup {ratio:.2f}x"


def test_pooled_report_matches_serial(serial_report, pooled_report):
    """Same text and as-if-sequential replay accounting on the pool,
    cold or over a warm trace store."""
    serial = serial_report["cold"]
    for leg in pooled_report.values():
        assert leg.text == serial.text
        assert leg.stats.replays == serial.stats.replays


def test_pooled_report_ships_traces_by_reference(pooled_report):
    for leg in pooled_report.values():
        assert leg.executor.traces_pickled_bytes == 0
        assert leg.executor.traces_mapped_bytes > 0


def test_warm_trace_store_skips_synthesis(pooled_report):
    """A known workload over a fresh replay store maps every bundle
    from the warm trace store instead of synthesising it."""
    assert pooled_report["warm"].stats.synthesis_count == 0


def test_default_session_is_shared():
    assert default_session() is default_session()
