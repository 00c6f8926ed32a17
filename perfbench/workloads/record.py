"""``record``: steps of the Table I supernova with a WorkLog attached.

One cycle rebuilds the registered EOS problem exactly as
``eos_problem_worklog`` builds it (2-d Type Iax supernova, three root
blocks of 16² zones, two refinement levels, Helmholtz EOS) and takes the
eight quick steps; each ``Simulation.step()`` is one op.  Seed 0 is the
registered configuration; any other seed moves the ignition bubble by a
seeded offset smaller than one finest zone.
"""

from __future__ import annotations

import random

from perfbench.spans import Recorder, breakdown
from perfbench.stats import OpLedger
from perfbench.workloads.base import (
    Workload,
    note_counts,
    span_layers,
    timed_op,
)

#: the quick EOS WorkLog's step count (``eos_problem_worklog(quick=True)``)
STEPS = 8
#: domain width / (root blocks * zones per block * 2**(max_level - 1))
FINEST_ZONE = 5.0e8 / (3 * 16 * 2)


class RecordWorkload(Workload):
    name = "record"
    cycle_s = 15.0
    #: the first step after a rebuild, and the steps that follow it
    op_kinds = ("step", "step+")
    warm_kinds = ("step+",)

    def preload(self) -> None:
        from repro.driver.simulation import Simulation  # noqa: F401
        from repro.perfmodel.workrecord import WorkLog  # noqa: F401
        from repro.setups.supernova import supernova_setup  # noqa: F401

    def _offset(self) -> float:
        import inspect

        from repro.setups.supernova import supernova_setup

        default = inspect.signature(supernova_setup).parameters[
            "ignition_offset"].default
        if self.ctx.seed == 0:
            return default
        rng = random.Random(self.ctx.seed)
        return default + rng.uniform(-0.5, 0.5) * FINEST_ZONE

    def build(self):
        """``eos_problem_worklog``'s simulation, with its WorkLog."""
        from repro.driver.simulation import Simulation
        from repro.perfmodel.workrecord import WorkLog
        from repro.setups.supernova import supernova_setup

        prob = supernova_setup(nblock=3, nxb=16, max_level=2, maxblocks=512,
                               ignition_offset=self._offset())
        sim = Simulation(prob.grid, prob.hydro, prob.flame, prob.gravity,
                         nrefs=4, refine_var="dens", refine_cutoff=0.75,
                         derefine_cutoff=0.05)
        log = WorkLog.attach(sim, helmholtz_eos=True)
        return sim, log

    def setup(self) -> None:
        self.sim, _ = self.build()
        self.expected_digest = (self.ctx.reference["eos_quick_digest"]
                                if self.ctx.seed == 0 else None)

    def warmup(self) -> None:
        self.sim.step()
        del self.sim

    def run_cycle(self, ledger: OpLedger) -> dict[str, float]:
        sim, log = self.build()
        eos = sim.unit("hydro").work.eos
        counts = {"zone_updates": 0, "leaf_blocks": 0, "eos_calls": 0,
                  "newton_iterations": 0, "blocks_changed": 0}
        nx, ny, nz = sim.grid.spec.interior_zones
        zones_per_block = nx * ny * nz
        start = ledger.mark()
        for i in range(STEPS):
            kind = self.op_kinds[min(i, 1)]
            calls, iters = eos.calls, eos.newton_iterations
            try:
                ms, info = timed_op(self.ctx, kind, sim.step)
            except Exception as exc:  # noqa: BLE001 — a failed op, counted
                ledger.fail(kind, f"{type(exc).__name__}: {exc}")
                ledger.fail_since(start, "cycle abandoned")
                return counts
            op = {"zone_updates": info.n_blocks * zones_per_block,
                  "leaf_blocks": info.n_blocks,
                  "eos_calls": eos.calls - calls,
                  "newton_iterations": eos.newton_iterations - iters,
                  "blocks_changed": info.n_refined + info.n_derefined}
            note_counts(self.ctx, op)
            for key, value in op.items():
                counts[key] += value
            ledger.ok(kind, ms)
        digest = log.digest()
        counts["worklog_digest"] = int(digest[:12], 16)
        if self.expected_digest is not None and digest != self.expected_digest:
            ledger.fail_since(start,
                              f"WorkLog digest {digest[:12]} != prepared "
                              f"quick EOS WorkLog {self.expected_digest[:12]}")
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
        from perfbench.layers import physics_hooks

        return physics_hooks()

    def layer_metrics(self, recorder: Recorder,
                      ledger: OpLedger) -> dict[str, float]:
        steps = breakdown(recorder, *self.op_kinds)
        out = span_layers(steps)
        n = steps.counts
        out.update({
            "driver.zone_updates": n["zone_updates"],
            "driver.leaf_blocks": n["leaf_blocks"],
            "driver.zone_updates_per_s":
                n["zone_updates"] / (steps.op_ms / 1e3),
        })
        return out


WORKLOAD = RecordWorkload
