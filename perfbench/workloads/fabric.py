"""``fabric``: supervised 2-rank jobs on a uniform 3-d Sedov mesh.

One op (and one cycle) is one supervised job: build a 2-rank fabric,
attach per-rank WorkLogs and run ``run_supervised(nend=8,
checkpoint_interval=4)`` with checkpoints in a fresh directory.  The mesh
is 2x2x2 root blocks of 16³ zones with 4 guard cells and no refinement
(the fabric's static decomposition).  Seed 0 centres the blast; any other
seed moves it by a seeded offset of under half a zone per axis.
"""

from __future__ import annotations

import hashlib
import random
import shutil

from perfbench.spans import Recorder, breakdown
from perfbench.stats import OpLedger
from perfbench.workloads.base import (
    Workload,
    note_counts,
    span_layers,
    timed_op,
)

RANKS = 2
STEPS = 8
CHECKPOINT_INTERVAL = 4
NBLOCK = 2
NXB = 16


def sedov_factory(center: tuple[float, float, float]):
    """A deterministic uniform 3-d Sedov Simulation factory."""
    from repro.driver.simulation import Simulation
    from repro.mesh.grid import Grid, MeshSpec
    from repro.mesh.tree import AMRTree
    from repro.physics.eos import GammaLawEOS
    from repro.physics.hydro.unit import HydroUnit
    from repro.setups.sedov import sedov_setup

    def build():
        tree = AMRTree(ndim=3, nblockx=NBLOCK, nblocky=NBLOCK,
                       nblockz=NBLOCK, max_level=0,
                       domain=((0, 1), (0, 1), (0, 1)))
        spec = MeshSpec(ndim=3, nxb=NXB, nyb=NXB, nzb=NXB, nguard=4,
                        maxblocks=NBLOCK ** 3 + 4)
        grid = Grid(tree, spec)
        eos = GammaLawEOS(gamma=1.4)
        sedov_setup(grid, eos, center=center)
        return Simulation(grid, HydroUnit(eos, cfl=0.4), nrefs=0,
                          dtinit=1e-5)

    return build


def fingerprint(fabric) -> str:
    """Everything a job's result is: every rank's mesh data, clock,
    counters, recorded work and halo traffic."""
    h = hashlib.sha256()
    for ctx in fabric.ranks:
        sim = ctx.sim
        h.update(sim.grid.unk.tobytes())
        h.update(repr((sim.t, sim.n_step, ctx.bytes_sent,
                       ctx.bytes_received,
                       sorted((e.name, v) for e, v in
                              sim.bank.totals.items()))).encode())
        h.update(ctx.log.digest().encode())
    return h.hexdigest()


class FabricWorkload(Workload):
    name = "fabric"
    cycle_s = 1.5
    op_kinds = ("job",)
    warm_kinds = ("job",)
    # checkpoints hold the wall-clock-advanced PAPI bank time, so their
    # compressed size can differ by a few bytes between identical jobs
    inexact_counts = ("bytes_written", "driver.io.checkpoint_bytes")

    def preload(self) -> None:
        from repro.mpisim.fabric import Fabric  # noqa: F401

        sedov_factory((0.5, 0.5, 0.5))

    def _center(self) -> tuple[float, float, float]:
        if self.ctx.seed == 0:
            return (0.5, 0.5, 0.5)
        rng = random.Random(self.ctx.seed)
        dx = 1.0 / (NBLOCK * NXB)
        return tuple(0.5 + rng.uniform(-0.5, 0.5) * dx for _ in range(3))

    def _job(self, supervised: bool):
        from repro.mpisim.fabric import Fabric

        fabric = Fabric(self.factory, RANKS)
        fabric.attach_worklogs(helmholtz_eos=False)
        if not supervised:
            fabric.evolve(nend=STEPS)
            return fabric, None, None
        chk = self.ctx.scratch("ckpt")
        report = fabric.run_supervised(
            nend=STEPS, checkpoint_interval=CHECKPOINT_INTERVAL,
            checkpoint_dir=chk)
        return fabric, report, chk

    def setup(self) -> None:
        self.factory = sedov_factory(self._center())
        reference, _, _ = self._job(supervised=False)
        self.expected = fingerprint(reference)

    def warmup(self) -> None:
        _, _, chk = self._job(supervised=True)
        shutil.rmtree(chk)

    def run_cycle(self, ledger: OpLedger) -> dict[str, float]:
        fsync = self.ctx.fsync
        before = (fsync.fsyncs, fsync.bytes_written)
        try:
            ms, (fabric, report, chk) = timed_op(
                self.ctx, "job", lambda: self._job(supervised=True))
        except Exception as exc:  # noqa: BLE001 — a failed op, counted
            ledger.fail("job", f"{type(exc).__name__}: {exc}")
            return {}
        shutil.rmtree(chk)
        # StepInfo.n_blocks counts the whole mesh's leaves on every rank
        steps = fabric.ranks[0].sim.history[-STEPS:]
        counts = {
            "zone_updates": sum(i.n_blocks for i in steps) * NXB ** 3,
            "leaf_blocks": sum(ctx.n_blocks for ctx in fabric.ranks),
            "halo_bytes": fabric.comm.bytes_moved,
            "retries": len(report.retries),
            "guard_trips": report.guard_trips,
            "rank_restarts": report.rank_restarts,
            "checkpoints": len(report.checkpoints),
            "fsyncs": fsync.fsyncs - before[0],
            "bytes_written": fsync.bytes_written - before[1],
        }
        note_counts(self.ctx, counts)
        got = fingerprint(fabric)
        if got != self.expected:
            ledger.fail("job", f"supervised job {got[:12]} != unsupervised "
                               f"reference {self.expected[:12]}")
        elif report.failure or report.interrupted:
            ledger.fail("job", f"supervised job reported "
                               f"{report.failure or report.interrupted}")
        else:
            ledger.ok("job", ms)
        counts["fingerprint"] = int(got[:12], 16)
        return counts

    def info_metrics(self, ledger: OpLedger,
                     counts: dict[str, float]) -> list[tuple]:
        """Interior zones advanced per second of op time."""
        op_s = sum(ledger.samples(self.op_kinds)) / 1e3
        zones = counts.get("zone_updates", 0) * self.cycles()
        rate = zones / op_s if op_s and not ledger.failed else 0.0
        return super().info_metrics(ledger, counts) + [
            ("zone_updates_per_s", rate, "1/s")]

    def hooks(self):
        from perfbench.layers import fabric_hooks

        return fabric_hooks()

    def layer_metrics(self, recorder: Recorder,
                      ledger: OpLedger) -> dict[str, float]:
        job = breakdown(recorder, "job")
        out = span_layers(job)
        n = job.counts
        out.update({
            "driver.zone_updates": n["zone_updates"],
            "driver.leaf_blocks": n["leaf_blocks"],
            "driver.zone_updates_per_s":
                n["zone_updates"] / (job.op_ms / 1e3),
            "mpisim.fabric.halo_bytes": n["halo_bytes"],
            "driver.supervisor.retries": n["retries"],
        })
        return out


WORKLOAD = FabricWorkload
