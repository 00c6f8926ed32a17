"""What every workload provides to the run loop in ``perfbench/run.py``."""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from perfbench.spans import Hook, OpBreakdown, Patches, Recorder
from perfbench.stats import OpLedger


@dataclass
class Context:
    """One run's inputs: the seed, its directories and reference data."""

    seed: int
    seconds: int
    root: Path
    run_dir: Path
    reference: dict
    #: counts fsyncs and flushed bytes inside ``repro.util.artifacts``
    fsync: object
    recorder: Recorder | None = None
    _serial: int = field(default=0, repr=False)

    def scratch(self, prefix: str) -> Path:
        """A new, empty directory inside the run directory."""
        self._serial += 1
        path = self.run_dir / f"{prefix}-{self._serial}"
        path.mkdir()
        return path


def timed_op(ctx: Context, kind: str, fn):
    """Run one op after a full garbage collection, returning (ms, result).

    The op span brackets exactly the timed region, so a traced op's layer
    spans and its wall time cover the same interval.
    """
    gc.collect()
    rec = ctx.recorder
    if rec is None:
        t0 = time.perf_counter_ns()
        result = fn()
        return (time.perf_counter_ns() - t0) / 1e6, result
    with rec.op(kind):
        t0 = time.perf_counter_ns()
        result = fn()
        ms = (time.perf_counter_ns() - t0) / 1e6
    return ms, result


def note_counts(ctx: Context, counts: dict[str, float]) -> None:
    """Attach a finished op's program-side counts to its trace record."""
    if ctx.recorder is not None and ctx.recorder.ops:
        op = ctx.recorder.ops[-1].counts
        for key, value in counts.items():
            op[key] = op.get(key, 0) + value


class Workload:
    """A workload runs whole cycles of ops; a cycle is the unit whose exact
    counts must repeat."""

    name = ""
    #: one cycle's duration on the reference host (2 vCPU); a run is
    #: round(seconds / cycle_s) cycles, so the op mix never depends on
    #: how fast the host happens to be
    cycle_s = 1.0
    #: the op kinds whose latencies make op_p50/op_p99 and warm_op_p50
    op_kinds: tuple[str, ...] = ("op",)
    warm_kinds: tuple[str, ...] = ("op",)
    #: counts reported as metrics but left out of the exact-repeat check
    inexact_counts: tuple[str, ...] = ()

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx

    def cycles(self) -> int:
        return max(1, round(self.ctx.seconds / self.cycle_s))

    def preload(self) -> None:
        """Import the program's modules (timed once, as start-up)."""

    def setup(self) -> None:
        """Build the inputs (repeated; setup_s takes the median)."""

    def warmup(self) -> None:
        """Run the untimed warm-up ops once, after the last set-up."""

    def prepare_trace(self) -> None:
        """Get ready for traced cycles (untimed, after warm-up)."""

    def run_cycle(self, ledger: OpLedger) -> dict[str, float]:
        """Run one cycle of timed ops; return the cycle's exact counts."""
        raise NotImplementedError

    def hooks(self) -> list[Hook]:
        return []

    @contextmanager
    def traced(self, recorder: Recorder):
        """Run the enclosed cycles with every layer hook installed."""
        with Patches(recorder, self.hooks()):
            yield

    def layer_metrics(self, recorder: Recorder,
                      ledger: OpLedger) -> dict[str, float]:
        """Per-layer values from the traced cycles."""
        return {}

    def count_metrics(self, counts: dict[str, float]) -> dict[str, float]:
        """Per-layer values from one cycle's exact counts."""
        return {}

    def info_metrics(self, ledger: OpLedger,
                     counts: dict[str, float]) -> list[tuple]:
        """Ungated (name, value, unit) lines of an untraced run."""
        return [("failed_frac", ledger.failed_frac, "fraction"),
                ("attempted_ops", ledger.attempted, "count")]

    def extra_metrics(self, ledger: OpLedger) -> dict[str, float]:
        """Workload-specific values of the end-to-end metrics."""
        return {}

    def peak_rss_mb(self) -> float:
        """Peak RSS of the process doing the work."""
        from perfbench.harness import peak_rss_mb

        return peak_rss_mb()

    def close(self) -> None:
        """Stop anything the workload started."""


def span_layers(b: OpBreakdown, prefix: str = "") -> dict[str, float]:
    """Per-layer values derived from the spans of one op kind."""
    s, t, c, n = b.self_ms, b.total_ms, b.calls, b.counts

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out = {
        "experiments.workloads.busy_ms": s.get("experiments.workloads", 0.0),
        "experiments.tables.busy_ms": s.get("experiments.tables", 0.0),
        "experiments.figure1.busy_ms": s.get("experiments.figure1", 0.0),
        "experiments.compilers.busy_ms": s.get("experiments.compilers", 0.0),
        "experiments.testprograms.busy_ms":
            s.get("experiments.testprograms", 0.0),
        "experiments.geometry.busy_ms": s.get("experiments.geometry", 0.0),
        "experiments.porting.busy_ms": s.get("experiments.porting", 0.0),
        "kernel.toys.busy_ms": s.get("kernel.toys", 0.0),
        "mpisim.comm.busy_ms": s.get("mpisim.comm", 0.0),
        "toolchain.launch.busy_ms": s.get("toolchain.launch", 0.0),
        "toolchain.launch.calls": c.get("toolchain.launch", 0.0),
        "perfmodel.session.busy_ms": s.get("perfmodel.session", 0.0),
        "perfmodel.synthesis.busy_ms": s.get("perfmodel.synthesis", 0.0),
        "perfmodel.synthesis.calls": c.get("perfmodel.synthesis", 0.0),
        "perfmodel.synthesis.events":
            n.get("perfmodel.synthesis.events", 0.0),
        "perfmodel.digest.busy_ms": s.get("perfmodel.digest", 0.0),
        "perfmodel.digest.calls": c.get("perfmodel.digest", 0.0),
        "perfmodel.digest.bytes": n.get("perfmodel.digest.bytes", 0.0),
        "hw.tlb.busy_ms": s.get("hw.tlb", 0.0),
        "hw.tlb.calls": c.get("hw.tlb", 0.0),
        "hw.tlb.events": n.get("hw.tlb.events", 0.0),
        "hw.tlb.events_per_s": ratio(n.get("hw.tlb.events", 0.0),
                                     s.get("hw.tlb", 0.0) / 1e3),
        "perfmodel.store.save_ms": s.get("perfmodel.store.save", 0.0),
        "perfmodel.store.saves": c.get("perfmodel.store.save", 0.0),
        "perfmodel.store.load_ms": s.get("perfmodel.store.load", 0.0),
        "perfmodel.store.loads": c.get("perfmodel.store.load", 0.0),
        "perfmodel.store.load_hit_ratio": ratio(
            n.get("perfmodel.store.load_hits", 0.0),
            c.get("perfmodel.store.load", 0.0)),
        "perfmodel.tracestore.save_ms":
            s.get("perfmodel.tracestore.save", 0.0),
        "perfmodel.tracestore.load_ms":
            s.get("perfmodel.tracestore.load", 0.0),
        "perfmodel.tracestore.loads": c.get("perfmodel.tracestore.load", 0.0),
        "perfmodel.tracestore.mapped_bytes":
            n.get("perfmodel.tracestore.mapped_bytes", 0.0),
        "hw.cpu.busy_ms": s.get("hw.cpu", 0.0),
        "driver.timestep.busy_ms": s.get("driver.timestep", 0.0),
        "physics.eos.busy_ms": s.get("physics.eos", 0.0),
        "physics.eos.calls": c.get("physics.eos", 0.0),
        "physics.eos.newton_iterations":
            n.get("physics.eos.newton_iterations", 0.0),
        "physics.hydro.sweep_ms": s.get("physics.hydro.sweep", 0.0),
        "physics.hydro.busy_ms": s.get("physics.hydro", 0.0),
        "mesh.guardcell.busy_ms": s.get("mesh.guardcell", 0.0),
        "mesh.guardcell.calls": c.get("mesh.guardcell", 0.0),
        "mesh.refine.busy_ms": s.get("mesh.refine", 0.0),
        "mesh.refine.blocks_changed":
            n.get("mesh.refine.blocks_changed", 0.0),
        "physics.flame.busy_ms": s.get("physics.flame", 0.0),
        "physics.gravity.busy_ms": s.get("physics.gravity", 0.0),
        "perfmodel.workrecord.busy_ms": s.get("perfmodel.workrecord", 0.0),
        "mpisim.fabric.build_ms": t.get("mpisim.fabric.build", 0.0),
        "mpisim.fabric.step_ms": t.get("mpisim.fabric.step", 0.0),
        "mpisim.fabric.barrier_wait_ms": s.get("mpisim.fabric.barrier", 0.0),
        "mpisim.fabric.exchange_ms": t.get("mpisim.fabric.exchange", 0.0),
        "mpisim.fabric.snapshot_ms": t.get("mpisim.fabric.snapshot", 0.0),
        "mpisim.fabric.snapshots": c.get("mpisim.fabric.snapshot", 0.0),
        "mpisim.fabric.snapshot_bytes":
            n.get("mpisim.fabric.snapshot_bytes", 0.0),
        "driver.io.checkpoint_ms": t.get("driver.io.checkpoint", 0.0),
        "driver.io.checkpoints": c.get("driver.io.checkpoint", 0.0),
        "driver.io.checkpoint_bytes": n.get("driver.io.checkpoint_bytes", 0.0),
        "driver.supervisor.guard_ms": t.get("driver.supervisor.guard", 0.0),
        "util.artifacts.fsyncs": n.get("fsyncs", 0.0),
        "util.artifacts.bytes_written": n.get("bytes_written", 0.0),
        "trace.unattributed_pct": b.unattributed_pct,
    }
    return {prefix + k: v for k, v in out.items()}
