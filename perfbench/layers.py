"""Which entry point of which layer each span wraps.

Every hook patches the name where its caller looks it up, so the
program's own code runs unchanged between spans.  Span names are the
layer names the per-layer metrics report under.
"""

from __future__ import annotations

from pathlib import Path

from perfbench.spans import Hook


def _trace_bytes(trace) -> int:
    return int(trace.page.nbytes + trace.size.nbytes + trace.weight.nbytes)


def _synth_events(args, kwargs, result) -> dict[str, float]:
    stream, fine = result
    return {"perfmodel.synthesis.events":
            sum(t.n_events for t in stream)
            + sum(t.n_events for _, t, _ in fine)}


def _tlb_events(args, kwargs, result) -> dict[str, float]:
    traces = args[1] if len(args) > 1 else kwargs["traces"]
    return {"hw.tlb.events": sum(t.n_events for t in traces)}


def _store_load(args, kwargs, result) -> dict[str, float]:
    return {"perfmodel.store.load_hits": int(result is not None)}


def _bundle_load(args, kwargs, result) -> dict[str, float]:
    if result is None:
        return {}
    return {"perfmodel.tracestore.mapped_bytes": result.nbytes}


def report_hooks() -> list[Hook]:
    """The quick report: sections, replay session, stores and kernels."""
    from repro.experiments import (
        compilers,
        geometry,
        porting,
        report,
        testprograms,
    )
    from repro.hw.cpu import CycleModel
    from repro.perfmodel import session
    from repro.perfmodel.pipeline import PerformancePipeline, SynthesisTask
    from repro.perfmodel.store import ReplayStore
    from repro.perfmodel.tracestore import TraceStore

    return [
        # the report's sections, as full_report calls them
        Hook(report, "eos_problem_worklog", "experiments.workloads"),
        Hook(report, "hydro_problem_worklog", "experiments.workloads"),
        Hook(report, "run_table", "experiments.tables"),
        Hook(report, "render_table", "experiments.tables"),
        Hook(report, "figure1_data", "experiments.figure1"),
        Hook(report, "render_figure1", "experiments.figure1"),
        Hook(report, "compiler_comparison", "experiments.compilers"),
        Hook(compilers.CompilerComparison, "render", "experiments.compilers"),
        Hook(report, "static_vs_dynamic", "experiments.testprograms"),
        Hook(report, "hugepage_usage_matrix", "experiments.testprograms"),
        Hook(report, "render_outcomes", "experiments.testprograms"),
        Hook(geometry, "geometry_study", "experiments.geometry"),
        Hook(geometry.GeometryStudy, "render", "experiments.geometry"),
        Hook(porting, "porting_study", "experiments.porting"),
        Hook(porting.PortingResult, "render", "experiments.porting"),
        # layers below the sections
        Hook(testprograms, "_static_vs_dynamic", "kernel.toys"),
        Hook(testprograms, "_hugepage_usage_matrix", "kernel.toys"),
        Hook(porting, "scaling_model", "mpisim.comm"),
        Hook(PerformancePipeline, "_launch_and_allocate", "toolchain.launch"),
        Hook(session.ReplaySession, "replay_batch", "perfmodel.session"),
        Hook(session.ReplaySession, "replay_sweep", "perfmodel.session"),
        Hook(session.ReplaySession, "memo", "perfmodel.session"),
        Hook(SynthesisTask, "__call__", "perfmodel.synthesis",
             _synth_events),
        Hook(session, "trace_digest", "perfmodel.digest",
             lambda a, k, r: {"perfmodel.digest.bytes": _trace_bytes(a[0])}),
        Hook(session, "run_steady_segments", "hw.tlb", _tlb_events),
        Hook(session, "run_steady_segments_multi", "hw.tlb", _tlb_events),
        Hook(ReplayStore, "load", "perfmodel.store.load", _store_load),
        Hook(ReplayStore, "save", "perfmodel.store.save"),
        Hook(TraceStore, "load_bundle", "perfmodel.tracestore.load",
             _bundle_load),
        Hook(TraceStore, "save_bundle", "perfmodel.tracestore.save"),
        Hook(CycleModel, "cycles", "hw.cpu"),
        Hook(CycleModel, "seconds", "hw.cpu"),
        Hook(CycleModel, "measures", "hw.cpu"),
    ]


def physics_hooks() -> list[Hook]:
    """One Simulation step: timestep, physics units, mesh, WorkLog."""
    from repro.driver.simulation import Simulation
    from repro.mesh import unit as mesh_unit
    from repro.perfmodel.workrecord import WorkLog
    from repro.physics.flame import unit as flame_unit
    from repro.physics.flame.adr import ADRFlame
    from repro.physics.gravity.monopole import MonopoleGravity
    from repro.physics.hydro import unit as hydro_unit

    return [
        Hook(Simulation, "compute_dt", "driver.timestep"),
        Hook(hydro_unit.HydroUnit, "step", "physics.hydro"),
        Hook(hydro_unit, "sweep_blocks", "physics.hydro.sweep"),
        Hook(hydro_unit, "apply_eos", "physics.eos",
             lambda a, k, r: {"physics.eos.newton_iterations":
                              r.newton_iterations}),
        Hook(hydro_unit, "fill_guardcells", "mesh.guardcell"),
        Hook(flame_unit, "fill_guardcells", "mesh.guardcell"),
        Hook(ADRFlame, "step", "physics.flame"),
        Hook(MonopoleGravity, "accelerate", "physics.gravity"),
        Hook(mesh_unit, "refine_pass", "mesh.refine",
             lambda a, k, r: {"mesh.refine.blocks_changed": sum(r)}),
        Hook(WorkLog, "record_step", "perfmodel.workrecord"),
    ]


def _snapshot_bytes(args, kwargs, result) -> dict[str, float]:
    # computed: the per-rank unk copies a coordinated snapshot holds
    return {"mpisim.fabric.snapshot_bytes":
            sum(r.unk.nbytes for r in result.ranks)}


def _checkpoint_bytes(args, kwargs, result) -> dict[str, float]:
    directory = Path(result).parent
    return {"driver.io.checkpoint_bytes":
            sum(p.stat().st_size for p in directory.iterdir()
                if p.is_file())}


def fabric_hooks() -> list[Hook]:
    """A supervised rank-decomposed job, plus every physics layer."""
    from repro.mpisim import fabric

    Fabric = fabric.Fabric
    return physics_hooks() + [
        Hook(Fabric, "__init__", "mpisim.fabric.build"),
        Hook(Fabric, "step", "mpisim.fabric.step"),
        Hook(Fabric, "negotiate_dt", "mpisim.comm"),
        Hook(Fabric, "_wait_barrier", "mpisim.fabric.barrier"),
        Hook(Fabric, "_exchange", "mpisim.fabric.exchange"),
        Hook(Fabric, "snapshot", "mpisim.fabric.snapshot", _snapshot_bytes),
        Hook(Fabric, "write_checkpoint", "driver.io.checkpoint",
             _checkpoint_bytes),
        Hook(fabric, "step_guards", "driver.supervisor.guard"),
    ]
