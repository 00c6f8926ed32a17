"""Process-pool execution of independent replay work units.

A :class:`~repro.perfmodel.session.ReplaySession` batch decomposes into
*work units* that are pure functions of their inputs: one unit per
distinct content-keyed stream bundle (a whole invocation sequence
sharing one TLB) and one per distinct fine trace (each replays through
an independent TLB stream).  Units never share simulator state, so they
can run on any schedule — including other processes — without changing
a single counter.  :class:`ReplayExecutor` schedules them:

* ``jobs <= 1`` (the default) runs every unit inline, in order — the
  serial reference.  Parallel runs are bit-identical *by construction*:
  the same units run the same kernels, only elsewhere; results come
  back keyed by content digest and merge deterministically.
* ``jobs > 1`` lazily forks a :class:`~concurrent.futures.\
ProcessPoolExecutor` (fork start method where available: workers
  inherit the loaded model without re-importing).  Any pool-level
  failure — a worker OOM-killed, a broken pipe, an unpicklable trace —
  degrades to the inline path and is counted on ``fallbacks``; genuine
  replay errors re-raise from the inline retry exactly as serial
  execution would have raised them.

Replay units carry their traces either by value (a list of
:class:`~repro.hw.trace.PageTrace`, pickled over the pipe) or by
reference (a :class:`~repro.perfmodel.tracestore.TraceRef` naming
sections of a persistent trace bundle, which the worker maps read-only
straight from the store).  The executor meters both on
``traces_pickled_bytes`` / ``traces_mapped_bytes`` so the tests can
gate that the zero-copy handoff actually engaged.  A third unit kind,
``"synth"``, runs trace synthesis itself on a worker and persists the
bundle — the requester maps the result instead of building it.

Job-count selection mirrors the engine precedence
(:func:`repro.perfmodel.pipeline.resolve_engine`): explicit argument,
then ``REPRO_REPLAY_JOBS``, then the ``replay_jobs`` runtime parameter.
``0`` or ``auto`` means one worker per core.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Any, Sequence

from repro.core import load_all, parameter_registry
from repro.util.errors import ConfigurationError

#: a work unit — one of:
#:   ("stream" | "fine", engine, geometry, [PageTrace, ...] | TraceRef)
#:   ("synth", trace_key, task, store_root, thp)
WorkUnit = tuple


def resolve_jobs(jobs: int | str | None = None, params=None) -> int:
    """Pick the replay worker count.  Precedence, highest first:

    1. an explicit ``jobs`` argument,
    2. the ``REPRO_REPLAY_JOBS`` environment variable,
    3. the ``replay_jobs`` runtime parameter (par file via ``params``,
       else the perfmodel unit's registered default of 1).

    ``0`` or ``"auto"`` at any level resolves to ``os.cpu_count()``.
    Anything else non-numeric or negative raises
    :class:`~repro.util.errors.ConfigurationError`.
    """
    load_all()
    spec = parameter_registry.spec("replay_jobs")
    value: Any = jobs
    if value is None:
        value = os.environ.get("REPRO_REPLAY_JOBS") or None
    if value is None and params is not None:
        value = params.get("replay_jobs")
    if value is None:
        value = spec.default
    if isinstance(value, str):
        text = value.strip().lower()
        if text == "auto":
            value = 0
        else:
            try:
                value = int(text)
            except ValueError:
                raise ConfigurationError(
                    f"invalid replay job count {value!r} "
                    "(expected an integer or 'auto')") from None
    if value < 0:
        raise ConfigurationError(
            f"invalid replay job count {value!r} (expected >= 0)")
    if value == 0:
        value = os.cpu_count() or 1
    return int(value)


def _run_unit(unit: WorkUnit) -> list:
    """Execute one work unit (also the process-pool entry point).

    Imports locally so a forked worker resolves the session lazily; the
    kernels run through the session's one dispatcher
    (:func:`~repro.perfmodel.session.replay_kernel`), guaranteeing the
    parallel path cannot drift from the serial one.  A ``"synth"`` unit
    synthesizes and persists a trace bundle (returning nothing — the
    requester maps the store entry); replay units resolve a
    :class:`~repro.perfmodel.tracestore.TraceRef` payload by mapping the
    bundle read-only before running the kernel.
    """
    from repro.perfmodel.session import replay_kernel
    kind = unit[0]
    if kind == "synth":
        from repro.perfmodel.tracestore import TraceStore
        _, key, task, root, thp = unit
        stream, fine = task()
        TraceStore(Path(root), thp=thp).save_bundle(key, stream, fine)
        return []
    kind, engine, geometry, payload = unit
    if kind not in ("stream", "fine"):
        raise ConfigurationError(f"unknown replay work unit kind {kind!r}")
    traces = payload if isinstance(payload, list) else payload.resolve()
    # a stream unit's traces share one TLB; each fine trace has its own
    streams = ([0] * len(traces) if kind == "stream"
               else list(range(len(traces))))
    return replay_kernel(engine, [geometry], traces, streams)[0]


class ReplayExecutor:
    """Runs replay work units, inline or across a process pool.

    The pool is created lazily (a warm cache run never pays the fork),
    kept for the executor's lifetime, and torn down by :meth:`close` /
    the context manager.  Thread-compatibility note: one executor per
    session; the session serialises access.
    """

    def __init__(self, jobs: int | str | None = None, *, params=None) -> None:
        self.jobs = resolve_jobs(jobs, params=params)
        #: pool-level failures degraded to inline execution
        self.fallbacks = 0
        #: trace payload bytes shipped to pool workers by pickling
        #: (by-value units) — the IPC tax the trace tier eliminates
        self.traces_pickled_bytes = 0
        #: trace payload bytes workers mapped from the trace store
        #: instead (by-reference units)
        self.traces_mapped_bytes = 0
        self._pool: ProcessPoolExecutor | None = None

    # --- lifecycle -------------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            ctx = None
            if "fork" in multiprocessing.get_all_start_methods():
                ctx = multiprocessing.get_context("fork")
            self._pool = ProcessPoolExecutor(max_workers=self.jobs,
                                             mp_context=ctx)
        return self._pool

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def __enter__(self) -> "ReplayExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # --- execution -------------------------------------------------------
    def run_units(self, units: Sequence[WorkUnit]) -> list[list]:
        """Execute ``units``; returns their results in input order.

        Results are independent of the schedule because units share no
        state; order preservation makes the merge deterministic.
        """
        units = list(units)
        if self.jobs <= 1 or len(units) <= 1:
            return [_run_unit(u) for u in units]
        try:
            pool = self._ensure_pool()
            outputs = list(pool.map(_run_unit, units))
        except Exception:
            # pool-level damage (broken worker, pickling trouble) must
            # not lose the measurement: retry inline.  A genuine replay
            # error raises again here, exactly as serial execution would.
            self.fallbacks += 1
            self.close()
            return [_run_unit(u) for u in units]
        self._account_ipc(units)
        return outputs

    def _account_ipc(self, units: Sequence[WorkUnit]) -> None:
        """Meter what the pool dispatch actually shipped per unit:
        payload bytes pickled over the pipe, or bytes the worker mapped
        from the trace store instead."""
        for unit in units:
            if unit[0] not in ("stream", "fine"):
                continue
            payload = unit[3]
            if isinstance(payload, list):
                self.traces_pickled_bytes += sum(t.nbytes for t in payload)
            else:
                self.traces_mapped_bytes += payload.nbytes


__all__ = ["ReplayExecutor", "resolve_jobs"]
