"""Rank-count x page-size scaling sweep over the simulated fabric.

The paper's tables are single-node, but its porting section leans on
FLASH "scaling reasonably well" — and the huge-page story changes shape
under decomposition: every rank is its own process with its own address
space, so TLB behaviour is per rank, while the hugetlb pool is a *node*
resource shared by every resident rank.  This sweep runs the real
rank-decomposed pipeline end to end:

* a 2-d Sedov :class:`~repro.mpisim.fabric.Fabric` evolves at each rank
  count (strong: fixed mesh; weak: fixed blocks per rank), with halo
  traffic and dt allreduces charged on the Ookami HDR100 model;
* every rank's :class:`~repro.perfmodel.workrecord.WorkLog` replays
  through its own :class:`PerformancePipeline` process — per-rank
  address spaces over *shared node kernels* (``ranks_per_node`` ranks
  per :class:`~repro.kernel.vmm.Kernel`) — under both page regimes,
  batched through :func:`~repro.perfmodel.pipeline.run_batch`;
* a node-contention study sizes a static hugetlb pool below the
  residents' demand and shows ``MAP_HUGETLB`` semantics per process:
  exhaustion degrades *only the ranks that hit the empty pool* (counted
  on the kernel's :class:`~repro.kernel.vmm.DegradationLog`), earlier
  residents keep their huge pages.

Replay-cache safety: per-rank logs almost always have distinct digests,
but the pipeline's ``rank_signature`` tag is set regardless, so a cached
replay can never be served across different rank decompositions even
when shard contents coincide.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.driver.simulation import Simulation
from repro.kernel.params import ookami_config
from repro.kernel.vmm import Kernel
from repro.mesh.grid import Grid, MeshSpec
from repro.mesh.tree import AMRTree
from repro.mpisim.fabric import Fabric
from repro.perfmodel.pipeline import run_batch
from repro.perfmodel.session import ReplaySession, default_session
from repro.perfmodel.workrecord import WorkLog
from repro.physics.eos import GammaLawEOS
from repro.physics.hydro.unit import HydroUnit
from repro.setups.sedov import sedov_setup
from repro.toolchain.compiler import FUJITSU
from repro.util import MiB

#: the two page regimes of every paper table, as Fujitsu flags
REGIMES = (((), "with"), (("-Knolargepage",), "without"))
#: strong-scaling mesh (blocks); weak scaling keeps 4 blocks per rank
STRONG_SHAPE = (4, 4)
WEAK_SHAPES = {1: (2, 2), 2: (4, 2), 4: (4, 4), 8: (8, 4), 16: (8, 8)}


def sedov_fabric_builder(nblockx: int, nblocky: int):
    """A deterministic 2-d Sedov Simulation factory for the fabric.

    Uniform (``max_level=0``) so the Morton split has no cross-rank
    refinement jumps at any power-of-two rank count, ``nrefs=0`` as the
    fabric's static decomposition requires.
    """
    def build():
        tree = AMRTree(ndim=2, nblockx=nblockx, nblocky=nblocky,
                       max_level=0, domain=((0, 1), (0, 1), (0, 1)))
        spec = MeshSpec(ndim=2, nxb=8, nyb=8, nzb=1, nguard=2,
                        maxblocks=nblockx * nblocky + 4)
        grid = Grid(tree, spec)
        eos = GammaLawEOS(gamma=1.4)
        sedov_setup(grid, eos)
        return Simulation(grid, HydroUnit(eos, cfl=0.4), nrefs=0,
                          dtinit=1e-5)
    return build


@dataclass
class ScalingStudy:
    """The sweep's numbers, ready to render or gate on."""

    ranks_per_node: int
    steps: int
    #: n_ranks -> point dict (time_s / per_rank_dtlb / huge_pages per
    #: regime, plus nodes / halo_bytes / comm_s), per sweep mode
    strong: dict[int, dict] = field(default_factory=dict)
    weak: dict[int, dict] = field(default_factory=dict)
    #: node hugetlb pool contention outcome (see :func:`node_contention`)
    contention: dict = field(default_factory=dict)

    def times(self, mode: str, regime: str) -> dict[int, float]:
        points = self.strong if mode == "strong" else self.weak
        return {p: point["time_s"][regime] for p, point in points.items()}

    def speedup(self, mode: str, regime: str, ranks: int) -> float:
        """Relative to the smallest measured rank count (cf. porting)."""
        times = self.times(mode, regime)
        base = min(times)
        return times[base] / times[ranks]

    def efficiency(self, mode: str, regime: str, ranks: int) -> float:
        base = min(self.times(mode, regime))
        if mode == "weak":
            # fixed work per rank: ideal is constant time
            return self.speedup(mode, regime, ranks)
        return self.speedup(mode, regime, ranks) / (ranks / base)

    # --- rendering -------------------------------------------------------
    def _mode_lines(self, mode: str, points: dict[int, dict],
                    caption: str) -> list[str]:
        lines = [f"  {mode} scaling ({caption}):",
                 f"  {'ranks':>7}{'nodes':>7}{'with HPs':>14}{'eff':>9}"
                 f"{'without HPs':>14}{'eff':>9}{'wo/w dTLB':>11}"]
        for p, point in sorted(points.items()):
            w = point["time_s"]["with"]
            wo = point["time_s"]["without"]
            dtlb_w = sum(point["per_rank_dtlb"]["with"])
            dtlb_wo = sum(point["per_rank_dtlb"]["without"])
            ratio = dtlb_wo / dtlb_w if dtlb_w else float("inf")
            eff_w = self.efficiency(mode, "with", p)
            eff_wo = self.efficiency(mode, "without", p)
            lines.append(
                f"  {p:>7}{point['nodes']:>7}{w:>12.4e} s{eff_w:>8.1%}"
                f"{wo:>12.4e} s{eff_wo:>8.1%}{ratio:>11.3f}")
        return lines

    def render(self) -> str:
        lines = ["RANK-DECOMPOSED SCALING SWEEP (2-d Sedov fabric, Fujitsu "
                 "compiler)",
                 "-----------------------------------------------------------"
                 "------",
                 f"  {self.steps} lockstep steps per run; up to "
                 f"{self.ranks_per_node} ranks share each node's kernel "
                 "(hugetlb pool) and HDR100 injection"]
        nx, ny = STRONG_SHAPE
        lines += self._mode_lines("strong", self.strong,
                                  f"{nx * ny} blocks total")
        lines += self._mode_lines("weak", self.weak, "4 blocks per rank")
        big = max(self.strong)
        point = self.strong[big]
        lines.append(f"  per-rank L1 DTLB misses at {big} ranks (strong):")
        for r in range(big):
            w = point["per_rank_dtlb"]["with"][r]
            wo = point["per_rank_dtlb"]["without"][r]
            lines.append(f"    rank {r}:  with {w:>12.4e}   "
                         f"without {wo:>12.4e}")
        halo = point["halo_bytes"] / MiB
        lines.append(f"  halo traffic at {big} ranks: {halo:.2f} MiB "
                     f"received over {self.steps} steps "
                     f"(comm {point['comm_s']:.2e} s)")
        c = self.contention
        if c:
            lines.append(
                f"  node hugetlb pool contention ({c['pool_pages']} x 2 MiB "
                f"static pages, {len(c['ranks'])} residents x "
                f"{c['arena_mib']} MiB):")
            for entry in c["ranks"]:
                backing = ("hugetlbfs" if entry["hugetlb"]
                           else f"base pages ({entry['fallbacks']} fallback)")
                lines.append(f"    rank {entry['rank']}: {backing}")
            lines.append("    -> exhaustion degrades only the ranks that "
                         "hit the empty pool; earlier residents keep "
                         "their huge pages")
        return "\n".join(lines)


def node_contention(*, ranks_per_node: int = 4, pool_pages: int = 48,
                    arena_mib: int = 40) -> dict:
    """Resident ranks racing one node's static hugetlb pool.

    Each rank is its own process (address space) mapping one
    ``MAP_HUGETLB`` arena with the Fujitsu runtime's fallback semantics:
    once the static pool (no overcommit) runs dry, *that* rank's mapping
    degrades to base pages and the kernel counts the downgrade — the
    per-process degradation story the paper's single-node tables cannot
    show.
    """
    kernel = Kernel(ookami_config())
    kernel.pool(2 * MiB).set_pool_size(pool_pages)
    ranks = []
    for rank in range(ranks_per_node):
        space = kernel.new_address_space(f"rank{rank}")
        before = kernel.degradations.counts.get(
            "hugetlb_base_page_fallback", 0)
        vma = space.mmap(arena_mib * MiB, hugetlb_size=2 * MiB,
                         hugetlb_fallback=True, name=f"rank{rank}-unk")
        space.touch_range(vma, 0, vma.length)
        after = kernel.degradations.counts.get(
            "hugetlb_base_page_fallback", 0)
        ranks.append({"rank": rank, "hugetlb": bool(vma.is_hugetlb),
                      "fallbacks": after - before})
    return {"pool_pages": pool_pages, "arena_mib": arena_mib,
            "ranks": ranks,
            "degraded": [r["rank"] for r in ranks if not r["hugetlb"]],
            "fallback_total": kernel.degradations.counts.get(
                "hugetlb_base_page_fallback", 0)}


#: replication inflates each rank's unk allocation to production size —
#: without it the toy mesh fits in a handful of 64 KiB base pages and
#: both page regimes replay identically (no TLB pressure to relieve)
REPLICATION = 64


def _run_point(builder, n_ranks: int, ranks_per_node: int, steps: int,
               session: ReplaySession) -> dict:
    """Evolve one fabric and replay every rank under both regimes."""
    rpn = min(ranks_per_node, n_ranks)
    fabric = Fabric(builder, n_ranks, ranks_per_node=rpn)
    fabric.attach_worklogs(helmholtz_eos=False)
    fabric.evolve(nend=steps)
    n_nodes = -(-n_ranks // rpn)
    point: dict = {
        "nodes": n_nodes,
        "halo_bytes": sum(ctx.bytes_received for ctx in fabric.ranks),
        "comm_s": fabric.comm.elapsed_s,
        "time_s": {}, "per_rank_dtlb": {}, "huge_pages": {},
    }
    for flags, label in REGIMES:
        # one kernel per node: resident ranks share its hugetlb pools,
        # each pipeline launch is its own process/address space on it
        kernels = [Kernel(ookami_config()) for _ in range(n_nodes)]
        pipelines = [
            session.pipeline(
                ctx.log, FUJITSU, flags=flags, replication=REPLICATION,
                kernel=kernels[ctx.rank // rpn],
                rank_signature=f"rank{ctx.rank}/{n_ranks}@rpn{rpn}")
            for ctx in fabric.ranks]
        reports = run_batch(pipelines)
        point["time_s"][label] = (
            max(r.flash_timer_s for r in reports) + fabric.comm.elapsed_s)
        point["per_rank_dtlb"][label] = [
            float(sum(t.tlb.l1_misses for t in r.units.values()))
            for r in reports]
        point["huge_pages"][label] = [r.uses_huge_pages for r in reports]
    return point


def scaling_study(*, quick: bool = False,
                  rank_counts: tuple[int, ...] | None = None,
                  steps: int | None = None,
                  ranks_per_node: int = 4,
                  session: ReplaySession | None = None) -> ScalingStudy:
    """The full sweep: strong + weak modes, both regimes, contention."""
    session = session if session is not None else default_session()
    if rank_counts is None:
        rank_counts = (1, 2, 4) if quick else (1, 2, 4, 8)
    if steps is None:
        steps = 2 if quick else 3
    study = ScalingStudy(ranks_per_node=ranks_per_node, steps=steps)
    for p in rank_counts:
        study.strong[p] = _run_point(sedov_fabric_builder(*STRONG_SHAPE),
                                     p, ranks_per_node, steps, session)
        study.weak[p] = _run_point(sedov_fabric_builder(*WEAK_SHAPES[p]),
                                   p, ranks_per_node, steps, session)
    study.contention = node_contention(ranks_per_node=ranks_per_node)
    return study


def serial_identity(*, steps: int = 2,
                    session: ReplaySession | None = None) -> dict:
    """The n_ranks=1 bit-identity probe the scaling tests gate on.

    A one-rank fabric installs no ownership filter and no halo hook —
    it *is* the serial spine — so its WorkLog digest, replayed counters,
    and timer must equal a plain Simulation's exactly (not approximately).
    """
    session = session if session is not None else default_session()
    builder = sedov_fabric_builder(*STRONG_SHAPE)
    fabric = Fabric(builder, 1)
    fabric_log = fabric.attach_worklogs(helmholtz_eos=False)[0]
    fabric.evolve(nend=steps)
    sim = builder()
    serial_log = WorkLog.attach(sim, helmholtz_eos=False)
    sim.evolve(nend=steps)
    reports = {}
    for log, tag in ((fabric_log, "fabric"), (serial_log, "serial")):
        r = session.run(log, FUJITSU, replication=1)
        reports[tag] = {
            "flash_timer_s": r.flash_timer_s,
            "dtlb_misses": float(sum(t.tlb.l1_misses
                                     for t in r.units.values())),
        }
    return {
        "digest_identical": fabric_log.digest() == serial_log.digest(),
        "counters_identical": reports["fabric"] == reports["serial"],
        "fabric": reports["fabric"],
        "serial": reports["serial"],
    }


__all__ = ["ScalingStudy", "scaling_study", "node_contention",
           "serial_identity", "sedov_fabric_builder", "REGIMES",
           "STRONG_SHAPE", "WEAK_SHAPES"]
