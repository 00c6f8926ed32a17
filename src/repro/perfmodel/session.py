"""Multi-configuration replay: one synthesis, many translations, few replays.

The paper's experiment is *one* recording replayed under many
configurations — with/without huge pages, four toolchains, two machines.
A :class:`ReplaySession` amortises that matrix three ways:

1. **Content-addressed replay dedup.**  The TLB simulator's output is a
   pure function of (page trace, TLB geometry, engine).  Every replay is
   keyed by a SHA-256 digest of exactly those inputs, so configurations
   that share a trace — all base-page A64FX toolchains produce
   byte-identical address-space layouts, hence byte-identical traces —
   get one replay and N pricings.  Fine (zone-resolution) traces replay
   through *independent* TLB streams, so they deduplicate individually;
   stream traces share one TLB and deduplicate only as a whole sequence.
   These trace-level results live in the session's memory only: every
   later reader is answered by the config-level entry they feed.

2. **Config-level result reuse.**  A full replay result (per-invocation
   :class:`~repro.hw.tlb.TLBStats` plus fine-trace scales) is keyed by
   ``WorkLog.digest()`` + the address-space layout signature + TLB
   geometry + engine + seed.  A hit skips trace synthesis entirely —
   this is what makes ``run_table``'s replication probe free on a warm
   cache, instead of a discarded full replay.

3. **Persistence.**  Config-level results (``cfg-*``) and :meth:`memo`
   entries (``memo-*``) live in the corruption-safe artifact store
   (atomic writes, SHA-256 sidecars, versioned envelopes), so the
   experiments, the tests, and CI hit warm cache across processes.  A
   corrupted entry is quarantined to ``*.corrupt`` and recomputed —
   never a crash, never a wrong number (keys are content hashes of the
   inputs; the payload is validated by the envelope + checksum).  The
   on-disk layout, sharding, and LRU size bounds live in
   :class:`~repro.perfmodel.store.ReplayStore`.

4. **The trace tier.**  Below the replay-result cache sits a
   content-addressed store of the synthesized traces themselves
   (:class:`~repro.perfmodel.tracestore.TraceStore`).  Synthesis is a
   pure function of the workload + address-space layout + sampling
   parameters — never of the TLB geometry or replay engine — so a warm
   trace store lets a *new* geometry/engine over a known workload skip
   synthesis entirely, cross-process, and the mapped bundles hand
   traces to pool workers by reference instead of pickling arrays.
   Distinct synthesis misses within a batch run across the replay
   executor's pool when it has workers, and inline otherwise.

The hard contract, inherited from the fast-path work: counters are
**bit-identical** to per-config :class:`PerformancePipeline` runs on both
engines.  Dedup relies only on (a) SHA-256 collision resistance and (b)
the replay kernels being pure functions of a single stream's trace —
which is exactly what the fast-vs-scalar property suite already pins.

``REPRO_REPLAY_CACHE`` follows the ``off|auto|<dir>`` contract of
:func:`repro.perfmodel.store.resolve_cache_dir` — ``off`` keeps
sessions memory-only, ``auto`` (or unset) uses the XDG default.
"""

from __future__ import annotations

import hashlib
import struct
import threading
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.hw.a64fx import TLBGeometry
from repro.hw.tlb import (
    TLBSimulator,
    TLBStats,
    run_steady_segments,
    run_steady_segments_multi,
)
from repro.hw.trace import PageTrace
from repro.perfmodel.store import (
    ReplayStore,
    resolve_cache_bytes,
    resolve_cache_dir,
)
from repro.perfmodel.tracestore import (
    TraceBundle,
    TraceStore,
    resolve_trace_cache_bytes,
    resolve_trace_cache_dir,
    resolve_trace_thp,
    trace_cache_configured,
)
from repro.util.artifacts import ArtifactError
from repro.util.errors import ConfigurationError

#: bump when the persisted envelope layout changes (a schema guard only —
#: content changes invalidate through the digests in the keys, not here)
_STORE_VERSION = 1
#: bump when trace *synthesis* semantics change (builder emission order,
#: probe step, fine sampling); part of every config-level key so replay
#: results recorded by an older model can never be served for a new one
TRACE_SCHEMA = 1


# --- digest helpers ----------------------------------------------------------

def _hexdigest(h: "hashlib._Hash") -> str:
    return h.hexdigest()[:40]


def trace_digest(trace: PageTrace) -> str:
    """Content digest of one page trace (page/size/weight arrays)."""
    h = hashlib.sha256()
    h.update(struct.pack("<q", trace.n_events))
    h.update(trace.page.tobytes())
    h.update(trace.size.tobytes())
    h.update(trace.weight.tobytes())
    return _hexdigest(h)


def geometry_digest(geometry: TLBGeometry) -> str:
    """Digest of the TLB fields that determine miss counts.

    Miss penalties and walk cycles price misses but do not change them,
    so they are deliberately excluded: machines sharing a geometry share
    replays.
    """
    h = hashlib.sha256()
    h.update(struct.pack("<4q", geometry.l1.entries, geometry.l1.assoc,
                         geometry.l2.entries, geometry.l2.assoc))
    return _hexdigest(h)


def _stream_key(engine: str, geo: str, traces: list[PageTrace]) -> str:
    """Content key of one stream pass: the whole trace sequence through
    one TLB, so it deduplicates only as a whole."""
    h = hashlib.sha256()
    h.update(f"stream/{engine}/{geo}/{len(traces)}".encode())
    for t in traces:
        h.update(trace_digest(t).encode())
    return _hexdigest(h)


# --- the replay kernel dispatcher --------------------------------------------

def replay_kernel(engine: str, geometries: list[TLBGeometry],
                  traces: list[PageTrace],
                  streams: list[int]) -> list[list[TLBStats]]:
    """Steady-state per-trace stats of ``traces`` under each geometry.

    Every replay runs through here, inline or on a pool worker.  Traces
    sharing a ``streams`` id replay back to back through one TLB — a
    warm-up pass over the stream's whole sequence, then the measured
    pass — and different ids never share TLB state.  The fast engine
    answers several geometries with one
    :func:`~repro.hw.tlb.run_steady_segments_multi` pass; the scalar
    oracle warms one :class:`~repro.hw.tlb.TLBSimulator` per stream.
    Returns one per-trace stats list per geometry, in order.
    """
    if engine == "fast":
        if len(geometries) == 1:
            return [run_steady_segments(geometries[0], traces,
                                        streams=streams)]
        return run_steady_segments_multi(geometries, traces, streams=streams)
    by_stream: dict[int, list[int]] = {}
    for k, s in enumerate(streams):
        by_stream.setdefault(s, []).append(k)
    out = []
    for geometry in geometries:
        row: list[TLBStats] = [TLBStats()] * len(traces)
        for ks in by_stream.values():
            sim = TLBSimulator(geometry)
            for k in ks:
                sim.run(traces[k])  # warm-up pass
            for k in ks:
                row[k] = sim.run(traces[k])
        out.append(row)
    return out


# --- session -----------------------------------------------------------------

@dataclass
class SessionStats:
    """Observability counters for one session (the tests gate on these
    — ``replays`` is the "distinct TLB replays" number)."""

    #: replay requests priced through the session (one per pipeline run)
    configs: int = 0
    #: configs whose replay actually executed TLB simulation work
    replays: int = 0
    #: configs served entirely from the in-memory config cache
    memory_hits: int = 0
    #: configs served entirely from the persistent store
    disk_hits: int = 0
    #: trace-level (content-digest) reuses across or within configs
    trace_hits: int = 0
    #: duplicate fine traces within a config not replayed twice
    fine_deduped: int = 0
    #: persisted memo()isations served instead of recomputed
    memo_hits: int = 0
    #: trace syntheses that actually ran (anywhere — requester or pool)
    synthesis_count: int = 0
    #: syntheses skipped because the trace tier already held the bundle
    trace_store_hits: int = 0


@dataclass
class ReplayResult:
    """Everything a pipeline needs to price one configuration."""

    #: per-invocation stream-pass stats, in invocation order
    stream: list[TLBStats]
    #: (invocation index, raw unscaled stats, extrapolation scale) per
    #: fine-sampled invocation
    fine: list[tuple[int, TLBStats, float]] = field(default_factory=list)


@dataclass
class ReplayRequest:
    """One configuration's replay inputs, batchable with others.

    ``synthesize`` is only called on a config-level cache miss, exactly
    as in :meth:`ReplaySession.replay` — a warm store never builds a
    trace.
    """

    config_key: str
    geometry: TLBGeometry
    engine: str
    synthesize: Callable[[], tuple[list[PageTrace],
                                   list[tuple[int, PageTrace, float]]]]
    #: content key of the synthesis inputs (workload digest + layout
    #: signature + sampling parameters; geometry- and engine-free)
    trace_key: str


class ReplaySession:
    """Shares and persists TLB replay results across configurations.

    ``share=False`` disables both cache levels (every config synthesises
    and replays — the seed-equivalent behaviour, the reference the tests
    compare against); ``persist=False`` keeps results in memory
    only.  Sessions are cheap; the process-wide :func:`default_session`
    is what gives independent experiment entry points a common cache.
    """

    def __init__(self, store_dir: str | Path | None = None, *,
                 persist: bool = True, share: bool = True,
                 max_bytes: int | None = None,
                 trace_dir: str | Path | None = None,
                 trace_max_bytes: int | None = None,
                 trace_thp: bool | None = None) -> None:
        self.share = share
        self.persist = persist and share
        self._store_dir = Path(store_dir) if store_dir is not None else None
        self._explicit_store_dir = store_dir is not None
        self._max_bytes = max_bytes
        self._store_obj: ReplayStore | None = None
        #: the trace tier: explicit ``trace_dir``, else REPRO_TRACE_CACHE
        #: (off|auto|<dir>), else nested under an explicit ``store_dir``,
        #: else the XDG default — active only while the session persists
        self._trace_dir = Path(trace_dir) if trace_dir is not None else None
        self._trace_max_bytes = trace_max_bytes
        self._trace_thp = trace_thp
        self._trace_store_obj: TraceStore | None = None
        self._trace_off = False
        self._bundles: dict[str, TraceBundle] = {}
        self._configs: dict[str, ReplayResult] = {}
        self._traces: dict[str, list[TLBStats]] = {}
        self._memos: dict[str, Any] = {}
        self._executor = None
        self._lock = threading.RLock()
        self.stats = SessionStats()

    @classmethod
    def disabled(cls) -> "ReplaySession":
        """A no-sharing, no-persistence session (per-config behaviour)."""
        return cls(persist=False, share=False)

    # --- store -----------------------------------------------------------
    def _store(self) -> ReplayStore | None:
        """The session's sharded persistent store, or ``None``.

        Cache-dir resolution is centralized in
        :func:`repro.perfmodel.store.resolve_cache_dir` — the single
        reader of ``REPRO_REPLAY_CACHE`` (``off|auto|<dir>``).  An
        explicit ``store_dir`` argument bypasses the environment; an
        uncreatable directory degrades the session to memory-only.
        """
        if not self.persist:
            return None
        if self._store_obj is None:
            store_dir = self._store_dir
            if store_dir is None:
                store_dir = resolve_cache_dir()
                if store_dir is None:  # REPRO_REPLAY_CACHE=off
                    self.persist = False
                    return None
            max_bytes = self._max_bytes
            if max_bytes is None:
                max_bytes = resolve_cache_bytes()
            store = ReplayStore(store_dir, max_bytes=max_bytes)
            try:
                store.ensure()
            except OSError:
                self.persist = False
                return None
            self._store_dir = store.root
            self._store_obj = store
        return self._store_obj

    @property
    def store(self) -> ReplayStore | None:
        """The persistent store (for metrics/eviction), if any."""
        return self._store()

    def _load(self, name: str) -> Any | None:
        """Fetch one persisted payload; corruption quarantines and misses."""
        store = self._store()
        if store is None:
            return None
        return store.load(name, version=_STORE_VERSION)

    def _save(self, name: str, payload: Any) -> None:
        store = self._store()
        if store is None:
            return
        try:
            store.save(name, payload, version=_STORE_VERSION)
        except (OSError, ArtifactError):
            self.persist = False  # e.g. read-only cache dir: degrade quietly

    # --- the trace tier ---------------------------------------------------
    def _trace_store(self) -> TraceStore | None:
        """The session's persistent trace-bundle store, or ``None``.

        Active only for sharing, persisting sessions (the trace tier
        sits *below* the replay cache — a memory-only session keeps its
        bundles in memory).  Resolution precedence: an explicit
        ``trace_dir`` argument, then ``REPRO_TRACE_CACHE``
        (``off|auto|<dir>``), then — under the ``auto`` default — nested
        as ``<store_dir>/traces`` when the session was given an explicit
        replay store directory (so throwaway test stores stay
        self-contained), else the XDG default.  An uncreatable directory
        degrades the trace tier off, never the session.
        """
        if not self.share or self._trace_off:
            return None
        if self._store() is None:  # replay persistence off or degraded
            return None
        if self._trace_store_obj is None:
            trace_dir = self._trace_dir
            if trace_dir is None:
                if self._explicit_store_dir and not trace_cache_configured():
                    trace_dir = Path(self._store_dir) / "traces"
                else:
                    trace_dir = resolve_trace_cache_dir()
                    if trace_dir is None:  # REPRO_TRACE_CACHE=off
                        self._trace_off = True
                        return None
            max_bytes = self._trace_max_bytes
            if max_bytes is None:
                max_bytes = resolve_trace_cache_bytes()
            thp = self._trace_thp
            if thp is None:
                thp = resolve_trace_thp()
            store = TraceStore(trace_dir, max_bytes=max_bytes, thp=thp)
            try:
                store.ensure()
            except OSError:
                self._trace_off = True
                return None
            self._trace_store_obj = store
        return self._trace_store_obj

    @property
    def trace_store(self) -> TraceStore | None:
        """The trace tier's store (for metrics/eviction), if any."""
        return self._trace_store()

    def _save_bundle(self, store: TraceStore, key: str,
                     bundle: TraceBundle) -> TraceBundle | None:
        """Persist a fresh bundle and map it back (zero-copy views); a
        failed save degrades the trace tier off and returns ``None``."""
        try:
            store.save_bundle(key, bundle.stream, bundle.fine)
        except (OSError, ArtifactError):
            self._trace_off = True
            return None
        return store.load_bundle(key)

    def _resolve_syntheses(self, wanted: list[tuple[str, Callable]],
                           ) -> list[TraceBundle]:
        """Resolve each ``(trace_key, synthesize)`` pair to a trace bundle.

        A sharing session answers what it can from its bundle memory and
        the trace tier, then synthesizes each *distinct* miss once:
        across the replay executor's pool when several picklable misses
        meet a pool with workers (workers persist the bundle; the
        requester maps it), inline otherwise, saving through the
        session's own trace store.  Accounting is as-if-sequential: one
        ``synthesis_count`` per distinct miss, one ``trace_store_hits``
        per request that would have found the store warm, independent of
        the job count.  A disabled session shares nothing, so every
        request synthesizes.
        """
        out: list[TraceBundle | None] = [None] * len(wanted)
        store = self._trace_store()
        waiting: dict[object, list[int]] = {}
        tasks: dict[object, Callable] = {}
        for i, (key, synthesize) in enumerate(wanted):
            if self.share:
                hit = self._bundles.get(key)
                if hit is None and store is not None:
                    hit = store.load_bundle(key)
                    if hit is not None:
                        self._bundles[key] = hit
                if hit is not None:
                    self.stats.trace_store_hits += 1
                    out[i] = hit
                    continue
                if key in waiting:
                    # an earlier batch entry synthesizes this bundle;
                    # sequential execution would find the store warm here
                    self.stats.trace_store_hits += 1
                    waiting[key].append(i)
                    continue
            else:
                key = i  # nothing is shared, not even within the batch
            waiting[key] = [i]
            tasks[key] = synthesize
        self.stats.synthesis_count += len(tasks)
        done: dict[object, TraceBundle | None] = {}
        if (store is not None and len(tasks) > 1
                and all(getattr(t, "picklable", False) for t in tasks.values())
                and self._executor_for_batch().jobs > 1):
            units = [("synth", k, t, str(store.root), store.thp)
                     for k, t in tasks.items()]
            with store.pinned(*(f"syn-{k}" for k in tasks)):
                try:
                    self._executor_for_batch().run_units(units)
                except Exception:  # noqa: BLE001 — synthesis must not be lost
                    self._trace_off = True
                else:
                    done = {k: store.load_bundle(k) for k in tasks}
        for k, synthesize in tasks.items():
            bundle = done.get(k)
            if bundle is None:
                stream, fine = synthesize()
                bundle = TraceBundle(stream=list(stream), fine=list(fine))
                store = self._trace_store()
                if store is not None:
                    bundle = self._save_bundle(store, k, bundle) or bundle
            if self.share:
                self._bundles[k] = bundle
            for i in waiting[k]:
                out[i] = bundle
        return out  # type: ignore[return-value]

    # --- replay ----------------------------------------------------------
    def replay(self, *, config_key: str, geometry: TLBGeometry, engine: str,
               synthesize: Callable[[], tuple[list[PageTrace],
                                              list[tuple[int, PageTrace,
                                                         float]]]],
               trace_key: str) -> ReplayResult:
        """Replay one configuration, reusing every cached piece.

        ``synthesize`` is only called on a config-level miss *and* a
        trace-tier miss — a warm store answers without building a single
        trace.  This is the single-request form of :meth:`replay_batch`;
        counters and cache behaviour are identical by construction.
        """
        return self.replay_batch([ReplayRequest(
            config_key=config_key, geometry=geometry, engine=engine,
            synthesize=synthesize, trace_key=trace_key)])[0]

    def replay_batch(self, requests: list[ReplayRequest],
                     ) -> list[ReplayResult]:
        """Thread-safe entry point for :meth:`_replay_batch`.

        One re-entrant lock serialises the session's cache mutations
        (:meth:`replay_batch`, :meth:`replay_sweep`, :meth:`memo`), so a
        multi-threaded server sharing one session keeps the exact
        sequential accounting the tests gate on — concurrency between
        *different* requests lives above this layer, in the serving
        singleflight, and below it, in the replay executor.
        """
        with self._lock:
            return self._replay_batch(requests)

    def _lookup_configs(self, keys: list[str],
                        ) -> tuple[list[ReplayResult | None], list[int],
                                   list[tuple[int, int]]]:
        """Answer what the config caches can, memory first, then disk.

        Returns the results so far, the indices still to replay, and
        ``(index, index of the earlier pending entry)`` aliases for keys
        repeated within the call — sequential replay would memory-hit
        those, so they count as memory hits and share the answer.
        """
        results: list[ReplayResult | None] = [None] * len(keys)
        pending: list[int] = []
        first: dict[str, int] = {}
        aliases: list[tuple[int, int]] = []
        for i, key in enumerate(keys):
            self.stats.configs += 1
            if self.share:
                hit = self._configs.get(key)
                if hit is not None:
                    self.stats.memory_hits += 1
                    results[i] = hit
                    continue
                if key in first:
                    self.stats.memory_hits += 1
                    aliases.append((i, first[key]))
                    continue
                stored = self._load(f"cfg-{key}")
                if self._valid_config(stored):
                    result = ReplayResult(
                        stream=list(stored["stream"]),
                        fine=[(int(j), s, float(sc))
                              for j, s, sc in stored["fine"]])
                    self._configs[key] = result
                    self.stats.disk_hits += 1
                    results[i] = result
                    continue
                first[key] = i
            pending.append(i)
        return results, pending, aliases

    def _remember(self, key: str, result: ReplayResult) -> None:
        """Keep one fresh config result in memory and on disk."""
        if self.share:
            self._configs[key] = result
            self._save(f"cfg-{key}",
                       {"stream": result.stream, "fine": result.fine})

    def _replay_batch(self, requests: list[ReplayRequest],
                      ) -> list[ReplayResult]:
        """Replay many configurations, scheduling distinct work units.

        The batch first answers every request it can from the config
        caches, then resolves the misses' traces through the trace tier
        (:meth:`_resolve_syntheses`: bundle-cache hits skip synthesis,
        and distinct misses may synthesise on the executor's pool) and
        *dedupes* their work across the batch: one unit per distinct
        content-keyed stream bundle, one per distinct fine trace.  Units
        are pure functions of their inputs, so the executor may run them
        in any order on any number of processes; results merge back by
        digest.  With the default serial executor the whole method is
        step-for-step the sequence of :meth:`replay` calls it replaces —
        counters included.

        The executor is the session's own lazily-created
        :class:`~repro.perfmodel.parallel.ReplayExecutor`, whose job
        count honours ``REPRO_REPLAY_JOBS`` / the ``replay_jobs``
        runtime parameter (serial unless asked otherwise).
        """
        results, pending, aliases = self._lookup_configs(
            [req.config_key for req in requests])
        if not pending:
            return results  # type: ignore[return-value]
        executor = self._executor_for_batch()

        # --- resolve synthesis through the trace tier: bundle-cache
        # hits skip it, distinct misses run (possibly across the pool)
        # and persist their bundles for the next request and process
        bundles = self._resolve_syntheses(
            [(requests[i].trace_key, requests[i].synthesize)
             for i in pending])

        # --- plan: dedupe distinct work units across the batch.  Unit
        # keys are content digests, so the accounting below is exactly
        # what sequential execution would have recorded: the first
        # requester of a unit computes it, later requesters hit the
        # (by then warm) trace cache.  Units bound for pool workers
        # carry a :class:`~repro.perfmodel.tracestore.TraceRef` to a
        # store-backed bundle — workers map the payload instead of
        # unpickling it; inline units read the session's own mapping,
        # already verified, instead of mapping and hashing it again.
        by_ref = executor.jobs > 1
        stream_units: dict[object, tuple] = {}   # ukey -> work unit
        fine_units: dict[object, tuple] = {}
        plans = []
        for i, bundle in zip(pending, bundles):
            req = requests[i]
            stream_traces, fine_traces = bundle.stream, bundle.fine
            geo = geometry_digest(req.geometry)
            computed = False

            # stream pass: one shared TLB for the whole sequence -> the
            # sequence deduplicates only as a whole
            bundle_key = _stream_key(req.engine, geo, stream_traces)
            stream_cached = self._traces.get(bundle_key)
            stream_ukey: object = bundle_key if self.share else (bundle_key, i)
            if stream_cached is not None or stream_ukey in stream_units:
                self.stats.trace_hits += 1
            else:
                stream_units[stream_ukey] = (
                    "stream", req.engine, req.geometry,
                    bundle.stream_payload() if by_ref else stream_traces)
                computed = True

            # fine passes: independent (fresh) TLB per trace -> each
            # trace deduplicates individually, within and across
            # configurations (and across the batch)
            digests = [trace_digest(t) for _, t, _ in fine_traces]
            fine_sources: dict[str, tuple] = {}  # digest -> source
            for pos, d in enumerate(digests):
                if d in fine_sources:
                    self.stats.fine_deduped += 1
                    continue
                fine_ukey: object = ((req.engine, geo, d) if self.share
                                     else (req.engine, geo, d, i))
                cached = self._traces.get(f"fine-{req.engine}-{geo}-{d}")
                if cached is not None:
                    fine_sources[d] = ("cached", cached[0])
                    self.stats.trace_hits += 1
                elif fine_ukey in fine_units:
                    fine_sources[d] = ("unit", fine_ukey)
                    self.stats.trace_hits += 1
                else:
                    fine_units[fine_ukey] = (
                        "fine", req.engine, req.geometry,
                        bundle.fine_payload(pos) if by_ref
                        else [fine_traces[pos][1]])
                    fine_sources[d] = ("unit", fine_ukey)
                    computed = True
            if computed:
                self.stats.replays += 1
            plans.append({
                "index": i, "request": req, "geo": geo,
                "bundle_key": bundle_key, "stream_ukey": stream_ukey,
                "stream_cached": stream_cached,
                "digests": digests, "fine_traces": fine_traces,
                "fine_sources": fine_sources,
            })

        # --- execute every distinct unit (possibly on worker processes).
        # Bundles referenced by units are pinned so a concurrent save's
        # budget enforcement cannot evict a file a worker is about to map
        ukeys = list(stream_units) + list(fine_units)
        units = [stream_units[k] for k in stream_units] + \
                [fine_units[k] for k in fine_units]
        tstore = self._trace_store()
        used_keys = ({b.key for b in bundles if b.key}
                     if tstore is not None else set())
        guard = (tstore.pinned(*(f"syn-{k}" for k in sorted(used_keys)))
                 if used_keys else nullcontext())
        with guard:
            outputs = executor.run_units(units)
        by_ukey = dict(zip(ukeys, outputs))
        if tstore is not None and tstore.max_bytes is not None:
            tstore.enforce_budget()

        # --- merge by digest, remember, assemble in request order
        for plan in plans:
            req = plan["request"]
            if plan["stream_cached"] is not None:
                stream_stats = plan["stream_cached"]
            else:
                stream_stats = by_ukey[plan["stream_ukey"]]
                if plan["stream_ukey"] in stream_units:
                    self._store_traces(plan["bundle_key"], stream_stats)
                    # later plans sharing the bundle read the stored list
                    stream_units.pop(plan["stream_ukey"], None)
            fine: list[tuple[int, TLBStats, float]] = []
            resolved: dict[str, TLBStats] = {}
            for d, (j, _, scale) in zip(plan["digests"],
                                        plan["fine_traces"]):
                if d not in resolved:
                    kind, payload = plan["fine_sources"][d]
                    if kind == "cached":
                        resolved[d] = payload
                    else:
                        stats = by_ukey[payload][0]
                        resolved[d] = stats
                        if payload in fine_units:
                            self._store_traces(
                                f"fine-{req.engine}-{plan['geo']}-{d}",
                                [stats])
                            fine_units.pop(payload, None)
                fine.append((j, resolved[d], scale))
            result = ReplayResult(stream=stream_stats, fine=fine)
            self._remember(req.config_key, result)
            results[plan["index"]] = result
        for i, j in aliases:
            results[i] = results[j]
        return results  # type: ignore[return-value]

    def replay_sweep(self, *, config_keys: list[str],
                     geometries: list[TLBGeometry], engine: str,
                     synthesize: Callable[[], tuple[list[PageTrace],
                                                    list[tuple[int, PageTrace,
                                                               float]]]],
                     trace_key: str) -> list[ReplayResult]:
        """Thread-safe entry point for :meth:`_replay_sweep` (see
        :meth:`replay_batch` for the locking contract)."""
        with self._lock:
            return self._replay_sweep(config_keys=config_keys,
                                      geometries=geometries, engine=engine,
                                      synthesize=synthesize,
                                      trace_key=trace_key)

    def _replay_sweep(self, *, config_keys: list[str],
                      geometries: list[TLBGeometry], engine: str,
                      synthesize: Callable[[], tuple[list[PageTrace],
                                                     list[tuple[int, PageTrace,
                                                                float]]]],
                      trace_key: str) -> list[ReplayResult]:
        """Replay one trace set under many TLB geometries in one pass.

        The geometry-sweep analogue of :meth:`replay_batch`: synthesis
        runs (at most) once, and on the fast engine every geometry that
        misses the caches shares a single
        :func:`~repro.hw.tlb.run_steady_segments_multi` call — one
        stack-distance pass for the whole sweep.  Results are persisted
        under exactly the keys per-geometry :meth:`replay` calls would
        use, so sweeps and single replays warm each other's caches, and
        every entry is bit-identical to its serial equivalent (the
        batched kernel's contract).
        """
        if len(config_keys) != len(geometries):
            raise ConfigurationError(
                "replay_sweep needs one config key per geometry")
        results, pending, aliases = self._lookup_configs(config_keys)
        if not pending:
            return results  # type: ignore[return-value]

        [bundle] = self._resolve_syntheses([(trace_key, synthesize)])
        stream_traces, fine_traces = bundle.stream, bundle.fine
        fine_digests = [trace_digest(t) for _, t, _ in fine_traces]
        trace_by_digest: dict[str, PageTrace] = {}
        for d, (_, t, _) in zip(fine_digests, fine_traces):
            trace_by_digest.setdefault(d, t)

        plans: dict[int, dict] = {}
        stream_need: list[int] = []
        for i in pending:
            geo = geometry_digest(geometries[i])
            bundle_key = _stream_key(engine, geo, stream_traces)
            computed = False
            stream_stats = self._traces.get(bundle_key)
            if stream_stats is not None:
                self.stats.trace_hits += 1
            else:
                stream_need.append(i)
                computed = True
            by_digest: dict[str, TLBStats] = {}
            missing: list[str] = []
            for d in fine_digests:
                if d in by_digest or d in missing:
                    self.stats.fine_deduped += 1
                    continue
                cached = self._traces.get(f"fine-{engine}-{geo}-{d}")
                if cached is not None:
                    by_digest[d] = cached[0]
                    self.stats.trace_hits += 1
                else:
                    missing.append(d)
            if missing:
                computed = True
            if computed:
                self.stats.replays += 1
            plans[i] = {"geo": geo, "bundle_key": bundle_key,
                        "stream": stream_stats, "by_digest": by_digest,
                        "missing": missing}

        if stream_need:
            rows = replay_kernel(engine, [geometries[i] for i in stream_need],
                                 stream_traces, [0] * len(stream_traces))
            for i, row in zip(stream_need, rows):
                plans[i]["stream"] = row
                self._store_traces(plans[i]["bundle_key"], row)

        # fine traces: geometries missing the *same* digests replay them
        # together (cold sweeps collapse into one batched call)
        groups: dict[tuple, list[int]] = {}
        for i in pending:
            if plans[i]["missing"]:
                groups.setdefault(tuple(plans[i]["missing"]), []).append(i)
        for missing, idxs in groups.items():
            traces = [trace_by_digest[d] for d in missing]
            rows = replay_kernel(engine, [geometries[i] for i in idxs],
                                 traces, list(range(len(traces))))
            for i, row in zip(idxs, rows):
                for d, stats in zip(missing, row):
                    plans[i]["by_digest"][d] = stats
                    self._store_traces(
                        f"fine-{engine}-{plans[i]['geo']}-{d}", [stats])

        for i in pending:
            plan = plans[i]
            fine = [(j, plan["by_digest"][d], scale)
                    for d, (j, _, scale) in zip(fine_digests, fine_traces)]
            result = ReplayResult(stream=plan["stream"], fine=fine)
            self._remember(config_keys[i], result)
            results[i] = result
        for i, j in aliases:
            results[i] = results[j]
        return results  # type: ignore[return-value]

    def _executor_for_batch(self):
        """The session's lazily-created executor (jobs from the
        environment / registry); created serial stays serial forever,
        so the hot path never imports multiprocessing machinery."""
        if getattr(self, "_executor", None) is None:
            from repro.perfmodel.parallel import ReplayExecutor
            self._executor = ReplayExecutor()
        return self._executor

    def close(self) -> None:
        """Release the executor's worker pool, if one was ever forked.

        Idempotent and non-final: the next batch lazily re-creates the
        executor, so closing between legs (or in ``session_scope``
        teardown) never strands a session.
        """
        ex = getattr(self, "_executor", None)
        if ex is not None:
            ex.close()
            self._executor = None

    def __enter__(self) -> "ReplaySession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _store_traces(self, key: str, stats: list[TLBStats]) -> None:
        """Remember trace-level results for later configs of this
        session; they are never persisted (the config entry they feed
        answers every later reader)."""
        if self.share:
            self._traces[key] = stats

    @staticmethod
    def _valid_config(stored: Any) -> bool:
        return (isinstance(stored, dict)
                and isinstance(stored.get("stream"), list)
                and all(isinstance(s, TLBStats) for s in stored["stream"])
                and isinstance(stored.get("fine"), list)
                and all(len(e) == 3 and isinstance(e[1], TLBStats)
                        for e in stored["fine"]))

    # --- deterministic experiment memoisation ----------------------------
    def memo(self, kind: str, key_parts: tuple, builder: Callable[[], Any],
             validate: Callable[[Any], bool] | None = None) -> Any:
        """Persist a deterministic experiment result keyed by content.

        ``key_parts`` must capture every input the result depends on
        (model constants included — ``repr`` of the relevant dataclasses
        is the usual spelling).  Used by the allocation experiments,
        whose kernel/allocator simulations are pure functions of their
        configuration, and by the serving layer's rendered-report memo.
        Holds the session lock for the duration of ``builder()`` (see
        :meth:`replay_batch`).
        """
        key = self.memo_key(kind, key_parts)
        with self._lock:
            if self.share:
                if key in self._memos:
                    self.stats.memo_hits += 1
                    return self._memos[key]
                stored = self._load(f"memo-{key}")
                if stored is not None and (validate is None
                                           or validate(stored)):
                    self._memos[key] = stored
                    self.stats.memo_hits += 1
                    return stored
            value = builder()
            if self.share:
                self._memos[key] = value
                self._save(f"memo-{key}", value)
            return value

    @staticmethod
    def memo_key(kind: str, key_parts: tuple) -> str:
        """The content digest :meth:`memo` files ``(kind, key_parts)``
        under — exposed so callers (the serving singleflight) can name,
        pin, or probe the persisted ``memo-<key>`` entry."""
        h = hashlib.sha256()
        h.update(f"{kind}/{TRACE_SCHEMA}".encode())
        h.update(repr(key_parts).encode())
        return _hexdigest(h)

    # --- sugar ------------------------------------------------------------
    def pipeline(self, log, compiler, **kwargs):
        """A :class:`PerformancePipeline` bound to this session."""
        from repro.perfmodel.pipeline import PerformancePipeline
        return PerformancePipeline(log, compiler, session=self, **kwargs)

    def run(self, log, compiler, **kwargs):
        """Run one configuration through the session; returns PerfReport."""
        return self.pipeline(log, compiler, **kwargs).run()


# --- the process-wide default session ----------------------------------------

_DEFAULT: ReplaySession | None = None


def default_session() -> ReplaySession:
    """The shared session every un-parameterised consumer joins.

    ``REPRO_REPLAY_CACHE`` (``off|auto|<dir>``) is honoured lazily by
    the session's store, through the one resolver in
    :mod:`repro.perfmodel.store` — every session without an explicit
    ``store_dir`` obeys it, not just this default one.
    """
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = ReplaySession()
    return _DEFAULT


def set_default_session(session: ReplaySession | None) -> None:
    global _DEFAULT
    _DEFAULT = session


@contextmanager
def session_scope(session: ReplaySession, *,
                  close: bool = False) -> Iterator[ReplaySession]:
    """Temporarily replace the default session (service, soak, tests).

    ``close=True`` additionally shuts the session's executor pool down
    in teardown — forked replay workers must not outlive the scope that
    forked them.  (Closing is non-final: a later batch re-creates the
    pool, so ``close=True`` is safe for sessions that are reused.)
    """
    global _DEFAULT
    previous = _DEFAULT
    _DEFAULT = session
    try:
        yield session
    finally:
        _DEFAULT = previous
        if close:
            session.close()


__all__ = ["ReplaySession", "ReplayResult", "ReplayRequest", "SessionStats",
           "default_session", "set_default_session", "session_scope",
           "trace_digest", "geometry_digest", "replay_kernel", "TRACE_SCHEMA",
           "resolve_cache_dir", "resolve_cache_bytes"]
