"""``report``: the quick full report, cold then warm.

One cycle is a cold op — ``full_report(quick=True)`` through a fresh
``ReplaySession`` over an empty store — followed by a warm op: the same
report through a second fresh session over the stores the cold op wrote.
The inputs are the registered quick WorkLogs prepared for this commit; the
seed does not change them.
"""

from __future__ import annotations

import hashlib
import json
import shutil

from perfbench.spans import Recorder, breakdown
from perfbench.stats import OpLedger
from perfbench.workloads.base import (
    Workload,
    note_counts,
    span_layers,
    timed_op,
)


def _counts(session, fsync, before: tuple[int, int]) -> dict[str, float]:
    """Exact counts one report op left in its session and stores."""
    st = session.stats
    out = {"configs": st.configs, "replays": st.replays,
           "memory_hits": st.memory_hits, "disk_hits": st.disk_hits,
           "trace_hits": st.trace_hits, "synthesis": st.synthesis_count,
           "trace_store_hits": st.trace_store_hits,
           "memo_hits": st.memo_hits,
           "fsyncs": fsync.fsyncs - before[0],
           "bytes_written": fsync.bytes_written - before[1]}
    store = session.store
    if store is not None:
        out.update(store_loads=store.stats.loads, store_saves=store.stats.saves)
    tstore = session.trace_store
    if tstore is not None:
        out.update(trace_loads=tstore.stats.loads,
                   trace_saves=tstore.stats.saves,
                   trace_mapped_bytes=tstore.stats.mapped_bytes)
    return out


class ReportWorkload(Workload):
    name = "report"
    cycle_s = 3.0
    op_kinds = ("cold",)
    warm_kinds = ("warm",)

    def preload(self) -> None:
        from repro.experiments import geometry, porting, report  # noqa: F401
        from repro.perfmodel import session  # noqa: F401

    def setup(self) -> None:
        from repro.experiments import report
        from repro.experiments.workloads import (
            eos_problem_worklog,
            hydro_problem_worklog,
        )

        self._full_report = report.full_report
        eos_problem_worklog(quick=True)
        hydro_problem_worklog(quick=True)
        baseline = self.ctx.root / "benchmarks/baselines/BENCH_report.json"
        self.expected_sha = json.loads(
            baseline.read_text())["session"]["text_sha256"]

    def warmup(self) -> None:
        store = self.ctx.scratch("warmup")
        for _ in range(2):
            self._report(store)
        shutil.rmtree(store)

    def _report(self, store):
        from repro.perfmodel.session import ReplaySession

        fsync = self.ctx.fsync
        before = (fsync.fsyncs, fsync.bytes_written)
        session = ReplaySession(store_dir=store)
        try:
            text = self._full_report(quick=True, session=session)
        finally:
            session.close()
        return text, session, before

    def run_cycle(self, ledger: OpLedger) -> dict[str, float]:
        store = self.ctx.scratch("store")
        counts: dict[str, float] = {}
        for kind in ("cold", "warm"):
            try:
                ms, (text, session, before) = timed_op(
                    self.ctx, kind, lambda: self._report(store))
            except Exception as exc:  # noqa: BLE001 — a failed op, counted
                ledger.fail(kind, f"{type(exc).__name__}: {exc}")
                continue
            sha = hashlib.sha256(text.encode()).hexdigest()
            op_counts = _counts(session, self.ctx.fsync, before)
            note_counts(self.ctx, op_counts)
            counts.update({f"{kind}.{k}": v for k, v in op_counts.items()})
            if sha != self.expected_sha:
                ledger.fail(kind, f"report text sha256 {sha[:12]} != "
                                  f"committed {self.expected_sha[:12]}")
            else:
                ledger.ok(kind, ms)
        shutil.rmtree(store)
        return counts

    def hooks(self):
        from perfbench.layers import report_hooks

        return report_hooks()

    def layer_metrics(self, recorder: Recorder,
                      ledger: OpLedger) -> dict[str, float]:
        cold, warm = breakdown(recorder, "cold"), breakdown(recorder, "warm")
        out = span_layers(cold)
        out.update(span_layers(warm, prefix="warm."))
        for prefix, b in (("", cold), ("warm.", warm)):
            n = b.counts
            configs = n.get("configs", 0.0)
            out[prefix + "perfmodel.session.configs"] = configs
            out[prefix + "perfmodel.session.replays"] = n.get("replays", 0.0)
            out[prefix + "perfmodel.session.hit_ratio"] = (
                (n.get("memory_hits", 0.0) + n.get("disk_hits", 0.0))
                / configs if configs else 0.0)
        return out


WORKLOAD = ReportWorkload
