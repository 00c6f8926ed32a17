"""Outside-in span recording: wrap a layer's entry points, keep spans in
memory, and aggregate self time per layer.

The program under test carries no instrumentation of its own yet, so the
benchmark replaces each layer's entry point *where its caller looks the
name up* (a module global such as ``repro.physics.hydro.unit.sweep_blocks``
or a class attribute such as ``ReplaySession.replay_batch``) with a wrapper
that records one span per call.  Uninstalling restores the originals, so an
untraced measurement in the same process runs the unmodified code.

Spans nest per thread: each thread keeps its own stack, and a span's parent
is the innermost open span *of the same thread*.  A span's self time is its
duration minus the time its children cover; because children on one thread
never overlap, that coverage is the sum of their durations.  Spans opened on
rank threads during an op belong to that op (the recorder tracks the current
op globally), so per-op layer sums work for the threaded fabric too.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable

#: name of the span that brackets one timed op
OP = "op"


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int = 0
    parent: int = -1
    #: index of the op span this span ran under (-1: outside any op)
    op: int = -1
    child_ns: int = 0

    @property
    def dur_ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def self_ns(self) -> int:
        return self.dur_ns - self.child_ns


@dataclass
class OpRecord:
    """One timed op: its kind, span index and the counts made inside it."""

    kind: str
    span: int
    counts: dict[str, float] = field(default_factory=dict)


class Recorder:
    """In-memory span and counter store (thread-safe appends)."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.ops: list[OpRecord] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._op = -1

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        span = Span(name=name, start_ns=self.clock(),
                    parent=stack[-1] if stack else -1, op=self._op)
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        end = self.clock()
        stack = self._stack()
        if not stack or stack[-1] != index:
            raise RuntimeError(f"span {self.spans[index].name!r} closed "
                               f"out of order")
        stack.pop()
        span = self.spans[index]
        span.end_ns = end
        if span.parent >= 0:
            self.spans[span.parent].child_ns += span.dur_ns

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield index
        finally:
            self.close(index)

    def op(self, kind: str):
        """Bracket one timed op; spans on any thread inside it belong to it."""
        return _OpScope(self, kind)

    def count(self, name: str, value: float = 1) -> None:
        """Add to a counter of the current op (dropped outside any op)."""
        if self._op < 0:
            return
        with self._lock:
            counts = self.ops[-1].counts
            counts[name] = counts.get(name, 0) + value


class _OpScope:
    def __init__(self, recorder: Recorder, kind: str) -> None:
        self.recorder = recorder
        self.kind = kind

    def __enter__(self) -> OpRecord:
        rec = self.recorder
        if rec._op >= 0:
            raise RuntimeError("ops do not nest")
        index = rec.open(OP)
        rec.spans[index].op = index
        rec.ops.append(OpRecord(kind=self.kind, span=index))
        rec._op = index
        return rec.ops[-1]

    def __exit__(self, *exc) -> None:
        rec = self.recorder
        index = rec._op
        rec._op = -1
        rec.close(index)


# --- patching ----------------------------------------------------------------

@dataclass
class Hook:
    """Wrap ``owner.attr`` in a span named ``span``.

    ``counts(args, kwargs, result)`` may return counter increments to add to
    the current op, measured at the layer boundary.
    """

    owner: Any
    attr: str
    span: str
    counts: Callable[..., dict[str, float]] | None = None


class Patches:
    """Installs a set of hooks and restores the originals on exit."""

    def __init__(self, recorder: Recorder, hooks: list[Hook]) -> None:
        self.recorder = recorder
        self.hooks = hooks
        self._saved: list[tuple[Any, str, Any]] = []

    def __enter__(self) -> "Patches":
        try:
            for hook in self.hooks:
                original = inspect.getattr_static(hook.owner, hook.attr)
                self._saved.append((hook.owner, hook.attr, original))
                setattr(hook.owner, hook.attr,
                        _wrap(self.recorder, hook, original))
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _wrap(recorder: Recorder, hook: Hook, original: Any) -> Any:
    kind = None
    if isinstance(original, (staticmethod, classmethod)):
        kind = type(original)
        original = original.__func__
    name, counts = hook.span, hook.counts
    if inspect.iscoroutinefunction(original):
        raise TypeError(f"{hook.attr}: coroutines of concurrent requests "
                        f"interleave on one thread and cannot nest as spans")

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        index = recorder.open(name)
        try:
            result = original(*args, **kwargs)
        finally:
            recorder.close(index)
        if counts is not None:
            for key, value in counts(args, kwargs, result).items():
                recorder.count(key, value)
        return result

    return kind(wrapper) if kind is not None else wrapper


# --- aggregation -------------------------------------------------------------

@dataclass
class OpBreakdown:
    """Per-op-kind layer totals, averaged over the ops of that kind."""

    kind: str
    n_ops: int
    op_ms: float
    #: span name -> mean self time per op (ms), summed over threads
    self_ms: dict[str, float]
    #: span name -> mean inclusive time per op (ms), summed over threads
    total_ms: dict[str, float]
    #: span name -> mean calls per op
    calls: dict[str, float]
    #: counter name -> mean value per op
    counts: dict[str, float]
    #: share of op wall time its own thread spent in no named child span
    unattributed_pct: float


def breakdown(recorder: Recorder, *kinds: str) -> OpBreakdown:
    """Aggregate every span recorded inside ops of the given kinds."""
    ops = [o for o in recorder.ops if o.kind in kinds]
    if not ops:
        raise ValueError(f"no ops of kind {kinds} recorded")
    wanted = {o.span for o in ops}
    self_ns: dict[str, int] = {}
    total_ns: dict[str, int] = {}
    calls: dict[str, int] = {}
    for i, span in enumerate(recorder.spans):
        if span.op not in wanted or i in wanted:
            continue
        self_ns[span.name] = self_ns.get(span.name, 0) + span.self_ns
        total_ns[span.name] = total_ns.get(span.name, 0) + span.dur_ns
        calls[span.name] = calls.get(span.name, 0) + 1
    op_ns = sum(recorder.spans[o.span].dur_ns for o in ops)
    op_self_ns = sum(recorder.spans[o.span].self_ns for o in ops)
    counts: dict[str, float] = {}
    for o in ops:
        for key, value in o.counts.items():
            counts[key] = counts.get(key, 0) + value
    n = len(ops)
    return OpBreakdown(
        kind="|".join(kinds), n_ops=n, op_ms=op_ns / n / 1e6,
        self_ms={k: v / n / 1e6 for k, v in self_ns.items()},
        total_ms={k: v / n / 1e6 for k, v in total_ns.items()},
        calls={k: v / n for k, v in calls.items()},
        counts={k: v / n for k, v in counts.items()},
        unattributed_pct=100.0 * op_self_ns / op_ns if op_ns else 0.0)
