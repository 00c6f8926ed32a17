"""Sample statistics and op accounting for the benchmark."""

from __future__ import annotations

import math
from dataclasses import dataclass, field


def percentile(samples: list[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``p`` %
    of the samples at or below it (``p`` in (0, 100])."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 < p <= 100.0:
        raise ValueError(f"percentile {p} outside (0, 100]")
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(samples: list[float]) -> float:
    """The middle sample, or the mean of the two middle samples."""
    if not samples:
        raise ValueError("median of no samples")
    ordered = sorted(samples)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def beyond(samples: list[float], p: float) -> int:
    """How many samples lie strictly above the ``p``-th percentile."""
    cut = percentile(samples, p)
    return sum(1 for s in samples if s > cut)


@dataclass
class OpLedger:
    """Attempted and failed ops plus the latency samples of the ops that
    succeeded.  A failed op (it raised, or its output failed a check) is
    counted, never dropped: it adds to ``failed`` and leaves no sample."""

    attempted: int = 0
    failed: int = 0
    samples_ms: dict[str, list[float]] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    _log: list[str] = field(default_factory=list, repr=False)

    def ok(self, kind: str, ms: float) -> None:
        self.attempted += 1
        self.samples_ms.setdefault(kind, []).append(ms)
        self._log.append(kind)

    def fail(self, kind: str, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.samples_ms.setdefault(kind, [])
        self._note(f"{kind}: {reason}")

    def mark(self) -> int:
        return len(self._log)

    def fail_since(self, mark: int, reason: str) -> None:
        """Turn every op that succeeded since ``mark`` into a failure (a
        check that can only run after them, such as a cycle's digest)."""
        for kind in reversed(self._log[mark:]):
            self.samples_ms[kind].pop()
            self.failed += 1
        del self._log[mark:]
        self._note(reason)

    def samples(self, kinds: tuple[str, ...]) -> list[float]:
        return [ms for k in kinds for ms in self.samples_ms.get(k, [])]

    def _note(self, reason: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(reason)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0
