"""The resilience study: what fault tolerance costs, and what it buys.

Production FLASH campaigns take the paper's runs (50-step EOS,
200-step Sedov) through node loss and wall-clock limits by
checkpointing; the interesting engineering numbers are the ones this
study measures on the rank-decomposed fabric:

* **checkpoint overhead** — wall-clock cost of coordinated snapshots
  (plus their on-disk checkpoints) at each cadence, against the same
  run with no supervision at all;
* **recovery cost** — with a rank killed mid-run, the wall time spent
  inside coordinated recovery (restore + respawn — the MTTR numerator)
  and the steps replayed from the last checkpoint (the part the
  checkpoint *interval* buys down: cheaper cadence, longer replay);
* **bit-identity** — the properties the whole fabric design rests on,
  gated as booleans: a fault-free supervised run must match the
  unsupervised reference exactly, and a killed-and-recovered run must
  match it too (counters and per-rank :meth:`WorkLog.digest`), because
  faults fire once and recovery replays clean.

``LAST_RUN_STATS`` mirrors the most recent study's recovery numbers so
the experiment service can expose ``serve_rank_restarts_total`` and
``serve_recovery_wall_seconds`` on ``/metrics`` — a recovering backend
is *why* a service sheds load or misses deadlines.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.chaos.rankfaults import RankChaos
from repro.experiments.scaling import sedov_fabric_builder
from repro.mpisim.fabric import Fabric

#: the most recent study's recovery numbers (the serve layer mirrors
#: these onto /metrics); empty until a study has run in this process
LAST_RUN_STATS: dict = {}

#: strong-scaling mesh shared with the scaling sweep
_SHAPE = (4, 4)


@dataclass
class ResilienceStudy:
    """The study's numbers, ready to render or gate on."""

    steps: int
    kill_step: int
    #: (n_ranks, interval) -> point dict
    points: dict[tuple[int, int], dict] = field(default_factory=dict)

    def render(self) -> str:
        lines = ["FABRIC RESILIENCE STUDY (2-d Sedov, coordinated "
                 "checkpoint/restart)",
                 "-----------------------------------------------------"
                 "-------------",
                 f"  {self.steps} lockstep steps; rank killed at step "
                 f"{self.kill_step}, recovered from the last coordinated "
                 "checkpoint",
                 "",
                 f"  {'ranks':>7}{'interval':>10}{'ckpt overhead':>15}"
                 f"{'recovery':>12}{'replayed':>10}{'restarts':>10}"
                 f"{'ff-ident':>10}{'rec-ident':>11}"]
        for (ranks, interval), p in sorted(self.points.items()):
            lines.append(
                f"  {ranks:>7}{interval:>10}"
                f"{p['overhead_pct']:>14.1f}%"
                f"{p['recovery_wall_s'] * 1e3:>9.2f} ms"
                f"{p['replayed_steps']:>10}"
                f"{p['rank_restarts']:>10}"
                f"{str(p['faultfree_identical']):>10}"
                f"{str(p['recovered_identical']):>11}")
        lines += [
            "",
            "  ckpt overhead: supervised fault-free wall vs unsupervised "
            "evolve",
            "  recovery: wall inside coordinated restore + rank respawn "
            "(MTTR numerator)",
            "  replayed: steps recomputed between the restored checkpoint "
            "and the kill",
            "  ff-ident / rec-ident: fault-free and killed-and-recovered "
            "runs finish",
            "  bit-identical to the reference (counters and per-rank "
            "WorkLog digests)",
        ]
        return "\n".join(lines)


def _fingerprint(fabric: Fabric) -> tuple:
    """What bit-identity means here: deterministic counter totals and
    the per-rank work digests (wall-time fields excluded)."""
    return (
        tuple(tuple(sorted((e.name, v) for e, v in
                           ctx.sim.bank.totals.items()))
              for ctx in fabric.ranks),
        tuple(ctx.log.digest() for ctx in fabric.ranks),
        tuple(ctx.sim.t for ctx in fabric.ranks),
    )


def _point(n_ranks: int, interval: int, steps: int, kill_step: int,
           reference: tuple, plain_wall: float) -> dict:
    builder = sedov_fabric_builder(*_SHAPE)

    # fault-free supervised run at this cadence: the overhead leg
    with tempfile.TemporaryDirectory() as d:
        fabric = Fabric(builder, n_ranks)
        fabric.attach_worklogs(helmholtz_eos=False)
        t0 = time.perf_counter()
        fabric.run_supervised(nend=steps, checkpoint_interval=interval,
                              checkpoint_dir=d)
        supervised_wall = time.perf_counter() - t0
        faultfree_identical = _fingerprint(fabric) == reference

    # killed-and-recovered run: the MTTR leg
    with tempfile.TemporaryDirectory() as d:
        fabric = Fabric(builder, n_ranks)
        fabric.attach_worklogs(helmholtz_eos=False)
        chaos = RankChaos(faults=("kill_rank",), start=kill_step,
                          every=steps + 1, seed=n_ranks)
        report = fabric.run_supervised(nend=steps,
                                       checkpoint_interval=interval,
                                       checkpoint_dir=d, rank_chaos=chaos)
        recovered_identical = _fingerprint(fabric) == reference

    return {
        "plain_wall_s": plain_wall,
        "supervised_wall_s": supervised_wall,
        "overhead_pct": (supervised_wall - plain_wall) / plain_wall * 100.0,
        "recovery_wall_s": report.recovery_wall_s,
        "rank_restarts": report.rank_restarts,
        "replayed_steps": report.replayed_steps,
        "faultfree_identical": faultfree_identical,
        "recovered_identical": recovered_identical,
    }


def resilience_study(*, quick: bool = False,
                     rank_counts: tuple[int, ...] = (2, 4),
                     intervals: tuple[int, ...] | None = None,
                     steps: int | None = None) -> ResilienceStudy:
    """Sweep checkpoint cadence and rank count through a forced kill."""
    if intervals is None:
        intervals = (1, 2) if quick else (1, 2, 4)
    if steps is None:
        steps = 6 if quick else 10
    kill_step = steps // 2 + 1
    study = ResilienceStudy(steps=steps, kill_step=kill_step)
    builder = sedov_fabric_builder(*_SHAPE)
    for n_ranks in rank_counts:
        # the unsupervised reference: no snapshots, no disk, no chaos
        ref = Fabric(builder, n_ranks)
        ref.attach_worklogs(helmholtz_eos=False)
        t0 = time.perf_counter()
        ref.evolve(nend=steps)
        plain_wall = time.perf_counter() - t0
        reference = _fingerprint(ref)
        for interval in intervals:
            study.points[(n_ranks, interval)] = _point(
                n_ranks, interval, steps, kill_step, reference, plain_wall)
    LAST_RUN_STATS.clear()
    LAST_RUN_STATS.update(
        rank_restarts=sum(p["rank_restarts"]
                          for p in study.points.values()),
        recovery_wall_s=sum(p["recovery_wall_s"]
                            for p in study.points.values()))
    return study


__all__ = ["ResilienceStudy", "resilience_study", "LAST_RUN_STATS"]
