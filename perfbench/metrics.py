"""The benchmark's workloads and metrics: the single source of
``BENCHMARK.json`` (``python3 perfbench/run.py --write-benchmark-json``).

Every run prints every metric of its kind: the end-to-end metrics when
untraced, the per-layer metrics when traced.  A layer a workload bypasses
reads 0 there, which is the no-change prediction for that workload.  Why
each workload and metric exists, and which workloads move which metric,
is in ``perfbench/README.md``.
"""

from __future__ import annotations

import json
from pathlib import Path

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 15

WORKLOADS = [
    ("report", "quick full report through a fresh replay session (cold op) "
               "then a second session over its stores (warm op): the path "
               "users and CI run most"),
    ("record", "steps of the Table I supernova with a WorkLog attached: the "
               "cold path, Helmholtz EOS bound, no replay"),
    ("fabric", "supervised 2-rank 3-d Sedov jobs with snapshots and "
               "checkpoints: hydro sweeps, guard cells, halo barrier"),
    ("serve", "closed loop of 2 keep-alive clients against the HTTP service: "
              "seeded GET/POST report mix over 9 targets, /metrics scrapes"),
]

#: (name, unit, better, bound)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("op_p50_ms", "ms", "lower", 0.24),
    ("warm_op_p50_ms", "ms", "lower", 0.24),
    ("ops_per_s", "1/s", "higher", 0.24),
    ("peak_rss_mb", "MiB", "lower", 0.1),
]

#: report layers measured on both the cold and the warm op
_WARM = [
    ("experiments.tables.busy_ms", "ms/op"),
    ("experiments.compilers.busy_ms", "ms/op"),
    ("experiments.testprograms.busy_ms", "ms/op"),
    ("experiments.geometry.busy_ms", "ms/op"),
    ("experiments.porting.busy_ms", "ms/op"),
    ("mpisim.comm.busy_ms", "ms/op"),
    ("toolchain.launch.busy_ms", "ms/op"),
    ("perfmodel.session.busy_ms", "ms/op"),
    ("perfmodel.session.replays", "count/op"),
    ("perfmodel.session.hit_ratio", "ratio"),
    ("perfmodel.store.load_ms", "ms/op"),
    ("perfmodel.store.loads", "count/op"),
    ("perfmodel.store.load_hit_ratio", "ratio"),
    ("hw.cpu.busy_ms", "ms/op"),
    ("trace.unattributed_pct", "%"),
]

#: (name, unit); per op of the workload unless the unit says otherwise
PER_LAYER = [
    # report: the cold op's sections sum to the op
    ("experiments.workloads.busy_ms", "ms/op"),
    ("experiments.tables.busy_ms", "ms/op"),
    ("experiments.figure1.busy_ms", "ms/op"),
    ("experiments.compilers.busy_ms", "ms/op"),
    ("experiments.testprograms.busy_ms", "ms/op"),
    ("experiments.geometry.busy_ms", "ms/op"),
    ("experiments.porting.busy_ms", "ms/op"),
    ("kernel.toys.busy_ms", "ms/op"),
    ("mpisim.comm.busy_ms", "ms/op"),
    ("toolchain.launch.busy_ms", "ms/op"),
    ("toolchain.launch.calls", "count/op"),
    ("perfmodel.session.busy_ms", "ms/op"),
    ("perfmodel.session.configs", "count/op"),
    ("perfmodel.session.replays", "count/op"),
    ("perfmodel.session.hit_ratio", "ratio"),
    ("perfmodel.synthesis.busy_ms", "ms/op"),
    ("perfmodel.synthesis.calls", "count/op"),
    ("perfmodel.synthesis.events", "count/op"),
    ("perfmodel.digest.busy_ms", "ms/op"),
    ("perfmodel.digest.calls", "count/op"),
    ("perfmodel.digest.bytes", "bytes/op"),
    ("hw.tlb.busy_ms", "ms/op"),
    ("hw.tlb.calls", "count/op"),
    ("hw.tlb.events", "count/op"),
    ("hw.tlb.events_per_s", "1/s"),
    ("perfmodel.store.save_ms", "ms/op"),
    ("perfmodel.store.saves", "count/op"),
    ("perfmodel.store.load_ms", "ms/op"),
    ("perfmodel.store.loads", "count/op"),
    ("perfmodel.store.load_hit_ratio", "ratio"),
    ("perfmodel.tracestore.save_ms", "ms/op"),
    ("perfmodel.tracestore.load_ms", "ms/op"),
    ("perfmodel.tracestore.loads", "count/op"),
    ("perfmodel.tracestore.mapped_bytes", "bytes/op"),
    ("hw.cpu.busy_ms", "ms/op"),
    ("util.artifacts.fsyncs", "count/op"),
    ("util.artifacts.bytes_written", "bytes/op"),
    # report: the warm op
    *[("warm." + name, unit) for name, unit in _WARM],
    # record and fabric: one Simulation step / the ranks' steps of a job
    ("driver.timestep.busy_ms", "ms/op"),
    ("physics.eos.busy_ms", "ms/op"),
    ("physics.eos.calls", "count/op"),
    ("physics.eos.newton_iterations", "count/op"),
    ("physics.hydro.sweep_ms", "ms/op"),
    ("physics.hydro.busy_ms", "ms/op"),
    ("mesh.guardcell.busy_ms", "ms/op"),
    ("mesh.guardcell.calls", "count/op"),
    ("mesh.refine.busy_ms", "ms/op"),
    ("mesh.refine.blocks_changed", "count/op"),
    ("physics.flame.busy_ms", "ms/op"),
    ("physics.gravity.busy_ms", "ms/op"),
    ("perfmodel.workrecord.busy_ms", "ms/op"),
    ("driver.zone_updates", "count/op"),
    ("driver.leaf_blocks", "count/op"),
    ("driver.zone_updates_per_s", "1/s"),
    # fabric: the supervised job around the ranks' steps
    ("mpisim.fabric.build_ms", "ms/op"),
    ("mpisim.fabric.step_ms", "ms/op"),
    ("mpisim.fabric.barrier_wait_ms", "ms/op"),
    ("mpisim.fabric.exchange_ms", "ms/op"),
    ("mpisim.fabric.halo_bytes", "bytes/op"),
    ("mpisim.fabric.snapshot_ms", "ms/op"),
    ("mpisim.fabric.snapshots", "count/op"),
    ("mpisim.fabric.snapshot_bytes", "bytes/op"),
    ("driver.io.checkpoint_ms", "ms/op"),
    ("driver.io.checkpoints", "count/op"),
    ("driver.io.checkpoint_bytes", "bytes/op"),
    ("driver.supervisor.guard_ms", "ms/op"),
    ("driver.supervisor.retries", "count/op"),
    # serve: one request
    ("serve.service.busy_ms", "ms/op"),
    ("serve.metrics.observe_ms", "ms/op"),
    ("serve.metrics.render_ms", "ms/scrape"),
    ("serve.http.busy_ms", "ms/op"),
    ("serve.http.handler_ms", "ms/op"),
    ("serve.requests.memory", "count"),
    ("serve.requests.warm", "count"),
    ("serve.requests.cold", "count"),
    ("serve.requests.coalesced", "count"),
    ("serve.shed", "count"),
    ("serve.timeouts", "count"),
    ("serve.response_bytes", "bytes/op"),
    # every workload
    ("trace.unattributed_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("host.calibration_ms", "ms"),
]


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": _better(n)}
                      for n, u in PER_LAYER],
    }


def _better(name: str) -> str:
    """Throughput, hit ratios and useful work read higher-is-better; time,
    waste and overhead lower."""
    if name.endswith(("_per_s", "hit_ratio")):
        return "higher"
    return "lower"


def write_benchmark_json(root: Path) -> Path:
    path = root / "BENCHMARK.json"
    path.write_text(json.dumps(benchmark_json(), indent=2) + "\n")
    return path
