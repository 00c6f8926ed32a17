#!/usr/bin/env python
"""The paper's huge-page investigation, end to end, on the simulated node.

Replays section III/IV: configure a "modified" Ookami node (hugeadm,
sysfs THP toggles), run the static/dynamic toy programs, try every
mechanism on FLASH under GNU/Cray, build with the Fujitsu compiler, and
watch /proc/meminfo throughout — then explain the mystery the model
resolves.

The closing section is a worked fast-vs-scalar example: a small Sod
workload is recorded once and its memory behaviour replayed through
``PerformancePipeline`` under both engines (``engine="fast"`` — the
default vectorized batch kernels — and ``engine="scalar"``, the
per-access reference), demonstrating the bit-identical-counters
contract and the fast path's wall-clock advantage on real traces (see
docs/performance_model.md).

Run:  python examples/hugepages_study.py
"""

import time

from repro.driver.simulation import Simulation
from repro.experiments.testprograms import (
    hugepage_usage_matrix,
    render_outcomes,
    static_vs_dynamic,
)
from repro.kernel.meminfo import render_meminfo
from repro.kernel.params import ookami_config
from repro.kernel.tools import Hugeadm
from repro.kernel.vmm import Kernel
from repro.mesh.grid import Grid, MeshSpec
from repro.mesh.tree import AMRTree
from repro.perfmodel.pipeline import PerformancePipeline
from repro.perfmodel.workrecord import WorkLog
from repro.physics.eos import GammaLawEOS
from repro.physics.hydro.unit import HydroUnit
from repro.setups.sod import SodProblem
from repro.toolchain.compiler import FUJITSU
from repro.util import MiB


def main() -> None:
    print("=== node setup (the two modified Ookami nodes, section III) ===")
    kernel = Kernel(ookami_config(modified_node=True))
    adm = Hugeadm(kernel)
    adm.pool_pages_min(128)  # hugeadm --pool-pages-min 2M:128
    adm.thp_always()  # echo always > .../transparent_hugepage/enabled
    print(f"THP sysfs: {kernel.read_sysfs_thp_enabled()}")
    print("\n/proc/meminfo after setup:")
    print(render_meminfo(kernel))

    print("\n=== the toy test programs (section IV) ===")
    print(render_outcomes(static_vs_dynamic("gnu") + static_vs_dynamic("cray"),
                          "static vs dynamic allocation"))

    print("\n=== the FLASH x mechanism matrix (sections III-IV) ===")
    print(render_outcomes(hugepage_usage_matrix(), "usage matrix"))

    print("\n=== meminfo during a Fujitsu-compiled FLASH run ===")
    kernel = Kernel(ookami_config())
    proc = FUJITSU.compile("flash4").launch(kernel)
    proc.allocate(96 * MiB, "unk")
    proc.first_touch("unk")
    print(render_meminfo(kernel))

    print("""
=== why the 'mystery' happens (the model's explanation) ===
On Ookami's CentOS 8 aarch64 kernel the translation granule is 64 KiB,
which makes the transparent-huge-page granule 512 MiB (PMD level) and the
hugetlbfs sizes 2 MiB / 512 MiB — exactly the boot parameters in the
paper.  Consequences, all visible above:
 * FLASH's ~100 MB arrays can never contain a whole aligned 512 MiB
   extent, so the THP fault path never fires for them under GNU or Cray
   (and the site-standard THP mode is madvise anyway);
 * the 2 GiB toy array does contain such extents -> dynamic allocation
   huge-pages; the static variant lives in the file-backed data segment,
   which THP never maps;
 * libhugetlbfs' LD_PRELOAD hooks only the morecore/sbrk heap path, but
   glibc serves big ALLOCATEs with plain mmap -> 'all to no avail';
   hugectl --shm only affects SysV shared memory FLASH doesn't use;
 * the Fujitsu runtime's XOS_MMM_L library intercepts the mmap path
   itself and backs it with 2 MiB hugetlbfs pages (surplus pool pages its
   installer enables on every node) -> FLASH huge-pages 'naturally', and
   -Knolargepage removes the library.
""")

    print("=== worked example: the two replay engines agree exactly ===")
    tree = AMRTree(ndim=2, nblockx=2, nblocky=2, max_level=1,
                   domain=((0, 1), (0, 1), (0, 1)))
    spec = MeshSpec(ndim=2, nxb=8, nyb=8, nzb=1, nguard=4, maxblocks=32)
    grid = Grid(tree, spec)
    eos = GammaLawEOS(gamma=1.4)
    SodProblem().initialize(grid, eos)
    sim = Simulation(grid, HydroUnit(eos, cfl=0.5), nrefs=0)
    log = WorkLog.attach(sim, helmholtz_eos=False)
    sim.evolve(nend=4)  # record once...

    reports, walls = {}, {}
    for engine in ("fast", "scalar"):  # ...replay under both engines
        t0 = time.perf_counter()
        reports[engine] = PerformancePipeline(
            log, FUJITSU, replication=8, engine=engine).run()
        walls[engine] = time.perf_counter() - t0
    totals = {k: r.as_counterbank().totals for k, r in reports.items()}
    assert totals["fast"] == totals["scalar"]
    dtlb = sum(t.tlb.l1_misses for t in reports["fast"].units.values())
    print(f"counter totals bit-identical across engines "
          f"({dtlb:.0f} L1 DTLB misses each); replay wall: "
          f"scalar {walls['scalar']:.2f}s, fast {walls['fast']:.2f}s "
          f"({walls['scalar'] / walls['fast']:.1f}x)")


if __name__ == "__main__":
    main()
