"""The experiment service: rendered reports served off the replay cache.

:class:`ExperimentService` is the transport-independent core of
``python -m repro.serve`` (the HTTP front end wraps it; the soak
harness drives it).  A request names a registered experiment (the same
registry ``python -m repro.experiments`` dispatches from) plus a
``quick`` flag; the response is the experiment's rendered text —
byte-identical to the offline CLI, because it *is* the same runner —
plus cache/timing metadata.

Three layers keep N concurrent clients from costing N replays:

1. **Response memory** — a completed request's rendered text is kept
   in-process keyed by its content digest, so repeat requests are
   answered on the event loop in microseconds.
2. **Singleflight** — concurrent requests sharing a digest join the
   in-flight leader (:mod:`repro.serve.singleflight`); N cold requests
   for one configuration run one computation.
3. **The replay session** — the leader's computation runs under the
   service's shared :class:`ReplaySession`, so *different* experiments
   still share synthesis and TLB replays through the PR 5
   content-addressed cache, and the rendered text itself persists as a
   session memo (``memo-<digest>``) — a service restarted over a warm
   store serves its first request from disk in milliseconds, without
   replaying anything.

The request digest is :meth:`ReplaySession.memo_key` over
``(experiment, quick, engine)`` — the same key the persisted memo files
under, which is what lets a singleflight leader pin its store entry
against LRU eviction for the duration of the computation.

Computations are synchronous CPU-bound model code, so they run on a
small thread pool; the session's internal lock serialises cache
mutations, which preserves the sequential ``SessionStats`` accounting
(`replays` stays the "distinct TLB replays" number the budget tests
gate on).
"""

from __future__ import annotations

import hashlib
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from dataclasses import asdict, dataclass
from typing import Any

from repro.experiments.registry import experiment, experiments
from repro.perfmodel.pipeline import resolve_engine
from repro.perfmodel.session import (
    ReplaySession,
    default_session,
    session_scope,
)
from repro.serve.metrics import MetricsRegistry
from repro.serve.singleflight import Singleflight
from repro.util.errors import ConfigurationError

#: schema of the structured service report (SERVICE_REPORT.json, /v1/stats)
REPORT_SCHEMA = "repro.serve/1"

#: memo kind under which rendered reports persist in the replay store
MEMO_KIND = "serve-report"


class UnknownExperimentError(ConfigurationError):
    """Request named an experiment the registry does not know (HTTP 404)."""


class ServiceOverloaded(Exception):
    """Admission control shed this request (HTTP 503 + Retry-After).

    Raised *before* any computation starts: only a request that would
    have to become a new singleflight leader is shed — joining an
    in-flight leader or reading the response memory costs microseconds
    and is always admitted, so a shed never wastes work already paid
    for.
    """

    def __init__(self, message: str, *, retry_after_s: float) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s


class DeadlineExceeded(Exception):
    """The per-request deadline elapsed first (HTTP 504).

    The leader's computation is *shielded*: it keeps running and lands
    in the response memory, so the client's retry (or a coalesced
    waiter with a longer deadline) gets the answer without recomputing.
    """


@dataclass
class ReportResponse:
    """One served report: the text plus its provenance."""

    name: str
    quick: bool
    engine: str
    #: request/content digest (the singleflight and memo key)
    key: str
    #: the rendered experiment text, byte-identical to the offline CLI
    text: str
    #: SHA-256 of ``text`` (clients comparing against offline output can
    #: skip transferring the body)
    sha256: str
    #: how this response was produced: ``memory`` (service response
    #: cache), ``coalesced`` (joined an in-flight computation), ``warm``
    #: (session memo — a prior run or a restarted service's store),
    #: ``cold`` (computed now)
    cache: str
    elapsed_ms: float

    def to_json(self) -> dict[str, Any]:
        return asdict(self)


class ExperimentService:
    """Serves experiment reports off a shared replay session."""

    def __init__(self, *, session: ReplaySession | None = None,
                 max_workers: int = 2,
                 metrics: MetricsRegistry | None = None,
                 request_timeout_s: float | None = None,
                 admission_limit: int | None = None,
                 retry_after_s: float = 0.5) -> None:
        if request_timeout_s is not None and request_timeout_s <= 0.0:
            raise ConfigurationError("request_timeout_s must be positive")
        if admission_limit is not None and admission_limit < 1:
            raise ConfigurationError("admission_limit must be >= 1")
        if retry_after_s <= 0.0:
            raise ConfigurationError("retry_after_s must be positive")
        self.session = session if session is not None else default_session()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: per-request deadline on the compute leg (None: no deadline)
        self.request_timeout_s = request_timeout_s
        #: would-be singleflight leaders admitted concurrently (None: all)
        self.admission_limit = admission_limit
        #: the Retry-After hint a shed response carries
        self.retry_after_s = retry_after_s
        self.singleflight = Singleflight()
        self.started_at = time.time()
        self._responses: dict[str, ReportResponse] = {}
        # admission bookkeeping must be synchronous with the admission
        # check (singleflight only learns a key once its task first
        # runs, one loop tick later): key -> requests riding it now
        self._admitted: dict[str, int] = {}
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-serve")
        # one compute at a time may own the default-session scope; warm
        # memo reads queue behind cold replays here, never interleave
        self._scope_lock = threading.Lock()

    # --- request resolution ----------------------------------------------
    @staticmethod
    def request_key(name: str, quick: bool, engine: str) -> str:
        """The content digest identifying one request's inputs.

        Exactly the session's memo key for the persisted rendered text,
        so the singleflight layer, the response memory, and the on-disk
        ``memo-<key>`` entry all agree on what "the same request" means.
        """
        return ReplaySession.memo_key(MEMO_KIND, (name, bool(quick), engine))

    def resolve(self, name: str, quick: bool) -> tuple[str, str]:
        """Validate *name* against the registry; returns (engine, key)."""
        try:
            experiment(name)
        except ConfigurationError as exc:
            raise UnknownExperimentError(str(exc)) from None
        engine = resolve_engine()
        return engine, self.request_key(name, quick, engine)

    def list_experiments(self) -> list[dict[str, str]]:
        return [{"name": spec.name, "description": spec.description}
                for spec in experiments()]

    # --- serving ----------------------------------------------------------
    async def report(self, name: str, *, quick: bool = False) -> ReportResponse:
        """Serve one experiment report (the HTTP handlers await this)."""
        import asyncio

        t0 = time.perf_counter()
        engine, key = self.resolve(name, quick)

        cached = self._responses.get(key)
        if cached is not None:
            response = self._respond(cached, "memory", t0)
            self._record(response)
            return response

        # admission control: shed only a request that would become a NEW
        # leader — joining an in-flight computation or reading memory is
        # (nearly) free and always admitted, so load shedding protects
        # the compute pool without throwing away work already in flight
        if (self.admission_limit is not None
                and key not in self._admitted
                and len(self._admitted) >= self.admission_limit):
            self.metrics.inc("serve_shed_total", experiment=name)
            self._mirror_backends()
            raise ServiceOverloaded(
                f"admission queue full ({len(self._admitted)} "
                f"computation(s) in flight, limit {self.admission_limit})",
                retry_after_s=self.retry_after_s)

        # the computation task is shielded from the deadline: on timeout
        # the leader keeps running and its response lands in memory, so
        # the client's retry is served instantly instead of recomputing
        self._admitted[key] = self._admitted.get(key, 0) + 1
        task = asyncio.ensure_future(
            self._compute_response(key, name, quick, engine, t0))
        task.add_done_callback(lambda _t, k=key: self._release(k))
        if self.request_timeout_s is None:
            response = await task
        else:
            try:
                response = await asyncio.wait_for(
                    asyncio.shield(task), self.request_timeout_s)
            except asyncio.TimeoutError:
                # the abandoned task still resolves (and may raise);
                # consume its outcome so the loop never logs an
                # unretrieved-exception warning
                task.add_done_callback(
                    lambda t: t.cancelled() or t.exception())
                self.metrics.inc("serve_timeout_total", experiment=name)
                self._mirror_backends()
                raise DeadlineExceeded(
                    f"report {name!r} missed the "
                    f"{self.request_timeout_s:.3f} s deadline (the "
                    f"computation continues; retry for the cached "
                    f"result)") from None
        self._record(response)
        return response

    def _release(self, key: str) -> None:
        n = self._admitted.get(key, 0) - 1
        if n <= 0:
            self._admitted.pop(key, None)
        else:
            self._admitted[key] = n

    async def _compute_response(self, key: str, name: str, quick: bool,
                                engine: str, t0: float) -> ReportResponse:
        import asyncio

        loop = asyncio.get_running_loop()
        (text, compute_cache), coalesced = await self.singleflight.do(
            key, lambda: loop.run_in_executor(
                self._pool, self._compute, key, name, quick, engine))
        response = ReportResponse(
            name=name, quick=bool(quick), engine=engine, key=key, text=text,
            sha256=hashlib.sha256(text.encode()).hexdigest(),
            cache="coalesced" if coalesced else compute_cache,
            elapsed_ms=(time.perf_counter() - t0) * 1e3)
        self._responses.setdefault(key, response)
        return response

    def _respond(self, base: ReportResponse, cache: str,
                 t0: float) -> ReportResponse:
        return ReportResponse(
            name=base.name, quick=base.quick, engine=base.engine,
            key=base.key, text=base.text, sha256=base.sha256, cache=cache,
            elapsed_ms=(time.perf_counter() - t0) * 1e3)

    def _compute(self, key: str, name: str, quick: bool,
                 engine: str) -> tuple[str, str]:
        """Run (or recall) one experiment under the service session.

        Executes on a worker thread.  The rendered text is memoised in
        the session store under ``memo-<key>``; while this computation
        is in flight that entry is pinned, so a concurrent LRU eviction
        pass can never delete what the leader is about to read or has
        just written.
        """
        computed = False

        def build() -> str:
            nonlocal computed
            computed = True
            return experiment(name).run(quick=quick)

        with ExitStack() as stack:
            stack.enter_context(self._scope_lock)
            stack.enter_context(session_scope(self.session))
            store = self.session.store
            if store is not None:
                stack.enter_context(store.pinned(f"memo-{key}"))
            text = self.session.memo(
                MEMO_KIND, (name, bool(quick), engine), build,
                validate=lambda v: isinstance(v, str) and bool(v))
        return text, ("cold" if computed else "warm")

    def _record(self, response: ReportResponse) -> None:
        self.metrics.inc("serve_requests_total",
                         experiment=response.name, cache=response.cache)
        self.metrics.observe("serve_request_ms", response.elapsed_ms,
                             cache=response.cache)
        self._mirror_backends()

    def _mirror_backends(self) -> None:
        """Mirror session/store/singleflight counters into the registry
        so one ``/metrics`` scrape carries the whole story."""
        m = self.metrics
        sf = self.singleflight.stats
        m.set("serve_singleflight_leaders_total", sf.leaders)
        m.set("serve_singleflight_coalesced_total", sf.coalesced)
        m.set("serve_singleflight_failures_total", sf.failures)
        s = self.session.stats
        m.set("serve_replay_configs_total", s.configs)
        m.set("serve_replays_total", s.replays)
        m.set("serve_replay_hits_total", s.memory_hits, layer="memory")
        m.set("serve_replay_hits_total", s.disk_hits, layer="disk")
        m.set("serve_replay_hits_total", s.trace_hits, layer="trace")
        m.set("serve_replay_hits_total", s.trace_store_hits,
              layer="trace-store")
        m.set("serve_replay_memo_hits_total", s.memo_hits)
        m.set("serve_synthesis_total", s.synthesis_count)
        store = self.session.store
        if store is not None:
            m.set("serve_store_evictions_total", store.stats.evictions)
            m.set("serve_store_evicted_bytes_total",
                  store.stats.evicted_bytes)
            m.set("serve_store_corrupt_total", store.stats.corrupt)
        tstore = self.session.trace_store
        if tstore is not None:
            m.set("serve_trace_store_mapped_bytes_total",
                  tstore.stats.mapped_bytes)
            m.set("serve_trace_store_thp_advised_total",
                  tstore.stats.thp_advised)
            m.set("serve_trace_store_corrupt_total", tstore.stats.corrupt)
        # the resilience experiment's last fabric run, when one has run
        # in this process: rank recoveries are service-level events (a
        # recovering backend is why requests shed or miss deadlines)
        from repro.experiments import resilience as _resilience
        last = _resilience.LAST_RUN_STATS
        if last:
            m.set("serve_rank_restarts_total",
                  last.get("rank_restarts", 0))
            m.set("serve_recovery_wall_seconds",
                  last.get("recovery_wall_s", 0.0))

    # --- observability ----------------------------------------------------
    def service_report(self) -> dict[str, Any]:
        """The structured report (``SERVICE_REPORT.json`` / ``/v1/stats``)."""
        self._mirror_backends()
        store = self.session.store
        sf = self.singleflight.stats
        session = self.session.stats
        return {
            "schema": REPORT_SCHEMA,
            "uptime_s": time.time() - self.started_at,
            "requests": {
                "total": int(self.metrics.counter_total(
                    "serve_requests_total")),
                "distinct": len(self._responses),
                "shed": int(self.metrics.counter_total(
                    "serve_shed_total")),
                "timeouts": int(self.metrics.counter_total(
                    "serve_timeout_total")),
            },
            "overload": {
                "request_timeout_s": self.request_timeout_s,
                "admission_limit": self.admission_limit,
                "retry_after_s": self.retry_after_s,
            },
            "singleflight": {
                "leaders": sf.leaders,
                "coalesced": sf.coalesced,
                "failures": sf.failures,
            },
            "session": asdict(session),
            "store": store.describe() if store is not None else None,
            "trace_store": (self.session.trace_store.describe()
                            if self.session.trace_store is not None
                            else None),
            "metrics": self.metrics.render_dict(),
        }

    def close(self) -> None:
        """Shut the compute pool and the session's replay workers down.

        Idempotent — the SIGTERM path and an enclosing ``with`` block
        may both call it.  This is what keeps forked replay workers from
        outliving the service process.
        """
        self._pool.shutdown(wait=True, cancel_futures=True)
        self.session.close()

    def __enter__(self) -> "ExperimentService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


__all__ = ["ExperimentService", "ReportResponse", "UnknownExperimentError",
           "ServiceOverloaded", "DeadlineExceeded",
           "REPORT_SCHEMA", "MEMO_KIND"]
