"""The fast replay engine against the scalar oracle.

Three layers of the equivalence contract:

* the batch TLB kernels (``lru_miss_mask``, ``run_steady_segments``)
  against the per-access ``TLBSimulator`` on randomized traces, across
  geometries and with every bucketing strategy forced;
* ``FastTraceBuilder`` against ``TraceBuilder``, element for element,
  for every unit kind;
* whole-pipeline replays under both engines, asserting bit-identical
  counter totals — on a small Sod log, and on the paper's two quick
  workloads with their totals pinned to the last recorded values.
"""

import numpy as np
import pytest

import repro.hw.tlb as tlb_mod
from repro.core import unit_registry
from repro.driver.config import RuntimeParameters
from repro.driver.simulation import Simulation
from repro.hw.a64fx import A64FX, TLBGeometry, TLBLevelSpec
from repro.hw.tlb import TLBSimulator, lru_miss_mask, run_steady_segments
from repro.hw.trace import PageTrace
from repro.mesh.grid import Grid, MeshSpec
from repro.mesh.tree import AMRTree
from repro.perfmodel.fastpath import FastTraceBuilder
from repro.perfmodel.patterns import TraceBuilder
from repro.perfmodel.pipeline import PerformancePipeline, resolve_engine
from repro.perfmodel.session import ReplaySession
from repro.perfmodel.workrecord import UnitInvocation, WorkLog
from repro.physics.eos import GammaLawEOS
from repro.util.errors import ConfigurationError
from repro.physics.hydro.unit import HydroUnit
from repro.setups.sod import SodProblem
from repro.toolchain.compiler import FUJITSU, GNU

BASE = 65536
HUGE = 2 * 1024 * 1024

#: a spread of shapes: A64FX-like, low-assoc, direct-mapped L1,
#: fully-associative L2
GEOMETRIES = [
    TLBGeometry(l1=TLBLevelSpec(16, 16, 8.0),
                l2=TLBLevelSpec(1024, 4, 30.0), walk_cycles=300.0),
    TLBGeometry(l1=TLBLevelSpec(64, 4, 8.0),
                l2=TLBLevelSpec(1024, 8, 30.0), walk_cycles=300.0),
    TLBGeometry(l1=TLBLevelSpec(8, 1, 8.0),
                l2=TLBLevelSpec(64, 64, 30.0), walk_cycles=300.0),
    TLBGeometry(l1=TLBLevelSpec(32, 2, 8.0),
                l2=TLBLevelSpec(256, 4, 30.0), walk_cycles=300.0),
]


def random_trace(rng, n, n_pages, mixed_sizes):
    pages = rng.integers(0, n_pages, size=n)
    if rng.random() < 0.5:  # bias toward a hot working set sometimes
        hot = rng.integers(0, max(n_pages // 10, 1), size=n)
        pages = np.where(rng.random(n) < 0.7, hot, pages)
    pool = [BASE, HUGE] if mixed_sizes else [BASE]
    sizes = rng.choice(pool, size=n)
    return PageTrace.from_accesses(pages.astype(np.int64) * HUGE,
                                   sizes.astype(np.int64))


def stats_tuple(s):
    return (s.accesses, s.l1_misses, s.l2_misses)


class TestBatchKernelsVsOracle:
    @pytest.mark.parametrize("trial", range(24))
    def test_run_segments_matches_scalar(self, trial):
        """Cold segments replayed back to back per stream through the
        per-level kernel — ``lru_miss_mask`` on the L1, then on the
        L1-miss substream for the L2 — miss exactly where one shared
        cold ``TLBSimulator`` per stream does, segment for segment."""
        rng = np.random.default_rng(100 + trial)
        geo = GEOMETRIES[trial % len(GEOMETRIES)]
        n_streams = int(rng.integers(1, 4))
        groups = [[random_trace(rng, int(rng.integers(1, 1200)),
                                int(rng.integers(2, 400)), trial % 3 != 0)
                   for _ in range(int(rng.integers(1, 4)))]
                  for _ in range(n_streams)]
        traces, streams = [], []
        for i, group in enumerate(groups):
            traces += group
            streams += [i] * len(group)
        lengths = [t.n_events for t in traces]
        seg = np.repeat(np.arange(len(traces)), lengths)
        tags = np.repeat(np.asarray(streams, dtype=np.int64), lengths)
        pages = np.concatenate([t.page for t in traces])
        vpn = pages // np.concatenate([t.size for t in traces])
        l1 = lru_miss_mask(pages, vpn, geo.l1.n_sets, geo.l1.assoc, tags)
        pos = np.flatnonzero(l1)
        l2 = lru_miss_mask(pages[pos], vpn[pos], geo.l2.n_sets,
                           geo.l2.assoc, tags[pos])
        l1_counts = np.bincount(seg[pos], minlength=len(traces))
        l2_counts = np.bincount(seg[pos[l2]], minlength=len(traces))
        k = 0
        for group in groups:
            sim = TLBSimulator(geo)  # segments of one stream share state
            for trace in group:
                ref = sim.run(trace)
                assert (int(l1_counts[k]), int(l2_counts[k])) == (
                    ref.l1_misses, ref.l2_misses)
                k += 1

    @pytest.mark.parametrize("trial", range(24))
    def test_steady_state_matches_warmed_scalar(self, trial):
        rng = np.random.default_rng(500 + trial)
        geo = GEOMETRIES[trial % len(GEOMETRIES)]
        n_streams = int(rng.integers(1, 4))
        groups = [[random_trace(rng, int(rng.integers(1, 1200)),
                                int(rng.integers(2, 400)), trial % 3 != 0)
                   for _ in range(int(rng.integers(1, 4)))]
                  for _ in range(n_streams)]
        traces, streams = [], []
        for i, group in enumerate(groups):
            traces += group
            streams += [i] * len(group)
        got = run_steady_segments(geo, traces, streams=streams)
        k = 0
        for group in groups:
            sim = TLBSimulator(geo)
            for trace in group:
                sim.run(trace)  # warm pass
            for trace in group:  # measured pass
                assert stats_tuple(got[k]) == stats_tuple(sim.run(trace))
                k += 1

    @pytest.mark.parametrize("strategy", ["matrix", "rounds", "descent"])
    def test_every_bucketing_strategy(self, strategy, monkeypatch):
        # steer _lru_core's adaptive bucketing so each strategy handles
        # the whole workload, then hold it to the oracle
        if strategy == "matrix":
            monkeypatch.setattr(tlb_mod, "_MATRIX_MAX_PAGES", 10 ** 9)
        elif strategy == "rounds":
            monkeypatch.setattr(tlb_mod, "_MATRIX_MAX_PAGES", 0)
            monkeypatch.setattr(tlb_mod, "_ROUNDS_PARALLELISM", 10 ** 9)
        else:
            monkeypatch.setattr(tlb_mod, "_MATRIX_MAX_PAGES", 0)
            monkeypatch.setattr(tlb_mod, "_ROUNDS_PARALLELISM", 0)
        rng = np.random.default_rng(42)
        for geo in GEOMETRIES:
            trace = random_trace(rng, 2500, 300, True)
            pages = np.repeat(trace.page, trace.weight)
            sizes = np.repeat(trace.size, trace.weight)
            miss = lru_miss_mask(pages, pages // sizes,
                                 geo.l1.n_sets, geo.l1.assoc)
            sim = TLBSimulator(geo)
            ref = sim.run(trace)
            assert int(miss.sum()) == ref.l1_misses
            # and through the two-level steady-state path, against the
            # now warmed simulator
            got = run_steady_segments(geo, [trace])[0]
            assert stats_tuple(got) == stats_tuple(sim.run(trace))

    def test_single_access_and_empty(self):
        geo = GEOMETRIES[0]
        one = PageTrace.from_accesses(np.array([HUGE], dtype=np.int64),
                                      np.array([BASE], dtype=np.int64))
        sim = TLBSimulator(geo)
        assert stats_tuple(sim.run(one)) == (1, 1, 1)
        got = run_steady_segments(geo, [one])[0]
        assert stats_tuple(got) == stats_tuple(sim.run(one)) == (1, 0, 0)
        assert run_steady_segments(geo, []) == []


@pytest.fixture(scope="module")
def small_log():
    tree = AMRTree(ndim=2, nblockx=2, nblocky=2, max_level=1,
                   domain=((0, 1), (0, 1), (0, 1)))
    spec = MeshSpec(ndim=2, nxb=8, nyb=8, nzb=1, nguard=4, maxblocks=32)
    grid = Grid(tree, spec)
    eos = GammaLawEOS(gamma=1.4)
    SodProblem().initialize(grid, eos)
    sim = Simulation(grid, HydroUnit(eos, cfl=0.5), nrefs=0)
    log = WorkLog.attach(sim, helmholtz_eos=False)
    sim.evolve(nend=4)
    return log


def _builders(log, replication, cls_a, cls_b, seed=77):
    pipes = []
    for cls in (cls_a, cls_b):
        pipe = PerformancePipeline(log, FUJITSU, replication=replication,
                                   seed=seed)
        proc, layout, unk, scratch, eos_t, flame_t, flux = \
            pipe._launch_and_allocate()
        pipes.append(cls(space=proc.space, layout=layout, unk=unk,
                         scratch=scratch, eos_table=eos_t,
                         flame_table=flame_t, log=log, flux_scratch=flux,
                         replication=replication, fine_sample_blocks=4,
                         seed=seed))
    return pipes


class TestBuilderEquivalence:
    @pytest.mark.parametrize("replication", [1, 3])
    @pytest.mark.parametrize("unit", ["hydro_sweep", "eos", "eos_gamma",
                                      "guardcell", "flame", "gravity"])
    def test_stream_traces_identical(self, small_log, unit, replication):
        scalar, fast = _builders(small_log, replication,
                                 TraceBuilder, FastTraceBuilder)
        rep = small_log.representative_step()
        inv = UnitInvocation(unit=unit, zones=rep.zones_total,
                             newton_iterations=3 * rep.zones_total)
        # same invocation twice: the RNG stream must stay in lockstep too
        for _ in range(2):
            a = scalar.invocation_stream_trace(rep, inv)
            b = fast.invocation_stream_trace(rep, inv)
            assert np.array_equal(a.page, b.page)
            assert np.array_equal(a.size, b.size)
            assert np.array_equal(a.weight, b.weight)

    def test_full_step_trace_sequence_identical(self, small_log):
        scalar, fast = _builders(small_log, 2, TraceBuilder, FastTraceBuilder)
        rep = small_log.representative_step()
        for inv in rep.invocations:
            a = scalar.invocation_stream_trace(rep, inv)
            b = fast.invocation_stream_trace(rep, inv)
            assert np.array_equal(a.page, b.page)
            assert np.array_equal(a.size, b.size)
            assert np.array_equal(a.weight, b.weight)


class TestEngineEquivalence:
    @pytest.mark.parametrize("flags", [(), ("-Knolargepage",)])
    @pytest.mark.parametrize("replication", [1, 3])
    def test_counter_totals_bit_identical(self, small_log, flags,
                                          replication):
        reports = {
            engine: PerformancePipeline(small_log, FUJITSU, flags=flags,
                                        replication=replication,
                                        engine=engine).run()
            for engine in ("fast", "scalar")
        }
        banks = {k: r.as_counterbank() for k, r in reports.items()}
        assert banks["fast"].totals == banks["scalar"].totals
        assert banks["fast"].time_s == banks["scalar"].time_s
        for unit, tot in reports["scalar"].units.items():
            fast_tot = reports["fast"].units[unit]
            assert stats_tuple(fast_tot.tlb) == stats_tuple(tot.tlb)

    def test_gnu_compiler_also_identical(self, small_log):
        fast = PerformancePipeline(small_log, GNU, engine="fast").run()
        scalar = PerformancePipeline(small_log, GNU, engine="scalar").run()
        assert fast.as_counterbank().totals == scalar.as_counterbank().totals


_EVENTS = ("PAPI_TOT_CYC", "PAPI_TLB_DM", "SVE_INST_RETIRED", "MEM_BYTES",
           "PAPI_FP_OPS")

#: (workload, replication, flags) -> (counter totals in ``_EVENTS``
#: order, (L1, L2) DTLB misses) of the quick paper workloads under the
#: Fujitsu compiler.  Deterministic model outputs: a change here is a
#: model change and must be made on purpose.
PINNED_COUNTERS = {
    ("eos", 2, ()): (
        (1538320151.5185091, 1239864.0, 515109321.3913045, 6621761152.0,
         1062114992.4), (1239864, 0)),
    ("eos", 2, ("-Knolargepage",)): (
        (1576651479.5185094, 16885304.0, 515109321.3913045, 6621761152.0,
         1062114992.4), (16885304, 0)),
    ("eos", 4, ()): (
        (3073372190.248447, 2437112.0, 1030218642.782609, 13176413440.0,
         2124229984.8), (2437112, 0)),
    ("eos", 4, ("-Knolargepage",)): (
        (3150009786.2484474, 33714472.0, 1030218642.782609, 13176413440.0,
         2124229984.8), (33714472, 256)),
    ("hydro", 2, ()): (
        (12761892854.241106, 5718540.0, 1554058017.391305, 84226867200.0,
         8800174080.0), (5718540, 0)),
    ("hydro", 2, ("-Knolargepage",)): (
        (12794370939.741106, 16619730.0, 1554058017.391305, 84226867200.0,
         8800174080.0), (16619730, 183180)),
    ("hydro", 4, ()): (
        (25523810278.482212, 11437080.0, 3108116034.78261, 168453734400.0,
         17600348160.0), (11437080, 780)),
    ("hydro", 4, ("-Knolargepage",)): (
        (25588729594.482212, 33239460.0, 3108116034.78261, 168453734400.0,
         17600348160.0), (33239460, 365970)),
}


class TestPaperWorkloadCounters:
    """The paper's quick workloads, with and without huge pages, at two
    mesh replications: each prices on the fast engine with no
    degradation, equals the scalar oracle exactly, and reproduces the
    pinned totals.  Disabled sessions keep each replay self-contained,
    so the scalar run synthesises its own traces too."""

    @pytest.mark.parametrize(
        "problem,replication,flags",
        [pytest.param(*key, id=f"{key[0]}-r{key[1]}-"
                      + ("nolargepage" if key[2] else "default"))
         for key in PINNED_COUNTERS])
    def test_counters_pinned_and_engine_independent(self, problem,
                                                    replication, flags):
        log = unit_registry.workload(problem).builder(quick=True)
        out = {}
        for engine in ("fast", "scalar"):
            report = PerformancePipeline(
                log, FUJITSU, flags=flags, replication=replication,
                engine=engine, session=ReplaySession.disabled()).run()
            assert report.engine == engine
            assert report.degradations == {}
            totals = report.as_counterbank().totals
            out[engine] = (
                {event.value: total for event, total in totals.items()},
                (sum(t.tlb.l1_misses for t in report.units.values()),
                 sum(t.tlb.l2_misses for t in report.units.values())))
        assert out["fast"] == out["scalar"]
        counters, dtlb = out["fast"]
        pinned, pinned_dtlb = PINNED_COUNTERS[problem, replication, flags]
        assert counters == pytest.approx(dict(zip(_EVENTS, pinned)),
                                         rel=1e-9, abs=0)
        assert dtlb == pinned_dtlb


class TestEngineSelection:
    def test_default_is_fast(self, monkeypatch):
        monkeypatch.delenv("REPRO_PERF_ENGINE", raising=False)
        assert resolve_engine() == "fast"

    def test_env_var_overrides_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_PERF_ENGINE", "scalar")
        assert resolve_engine() == "scalar"

    def test_argument_beats_env_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_PERF_ENGINE", "scalar")
        assert resolve_engine("fast") == "fast"

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown perf engine"):
            resolve_engine("simd")

    def test_unknown_env_engine_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_PERF_ENGINE", "warp")
        with pytest.raises(ConfigurationError, match="unknown perf engine"):
            resolve_engine()

    def test_params_beat_registry_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_PERF_ENGINE", raising=False)
        params = RuntimeParameters.from_par("perf_engine = scalar")
        assert resolve_engine(params=params) == "scalar"

    def test_env_var_beats_params(self, monkeypatch):
        monkeypatch.setenv("REPRO_PERF_ENGINE", "fast")
        params = RuntimeParameters.from_par("perf_engine = scalar")
        assert resolve_engine(params=params) == "fast"

    def test_argument_beats_everything(self, monkeypatch):
        monkeypatch.setenv("REPRO_PERF_ENGINE", "scalar")
        params = RuntimeParameters.from_par("perf_engine = scalar")
        assert resolve_engine("fast", params=params) == "fast"

    def test_pipeline_accepts_engine(self, small_log):
        pipe = PerformancePipeline(small_log, GNU, engine="scalar")
        assert pipe.engine == "scalar"

    def test_pipeline_accepts_params(self, small_log, monkeypatch):
        monkeypatch.delenv("REPRO_PERF_ENGINE", raising=False)
        params = RuntimeParameters.from_par("perf_engine = scalar")
        pipe = PerformancePipeline(small_log, GNU, params=params)
        assert pipe.engine == "scalar"
