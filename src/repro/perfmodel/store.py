"""The sharded, size-bounded replay store behind :class:`ReplaySession`.

:class:`ReplayStore` persists content-addressed pickles — a session's
config-level results (``cfg-*``) and memoised experiment results
(``memo-*``) — with the artifact-store guarantees (atomic writes,
SHA-256 sidecars, versioned envelopes, quarantine on corruption), plus:

* **2-hex-prefix sharding** — an entry named ``cfg-3fa2…`` lives at
  ``<root>/3f/cfg-3fa2….pkl``, so a busy cache never puts thousands of
  entries in one directory.  The shard is the first two characters of
  the trailing content digest in the entry name (every session key
  ends in one), so a digest in a log locates its file; names without a
  digest shard by the SHA-256 of the whole name.  The trace tier's
  ``syn-*`` bundles use the same layout.  An entry left at the store
  root by an older, flat layout is never read: its key misses and is
  rebuilt into its shard, and a byte budget still counts and evicts the
  straggler (eviction scans the whole tree).

* **Size/LRU eviction** — an optional byte budget
  (``REPRO_REPLAY_CACHE_BYTES`` or ``ReplayStore(max_bytes=...)``).
  Recency is the file mtime, refreshed on every load hit; when a save
  pushes the store over budget the oldest entries are deleted down to
  the low-water mark.  Entries **pinned** by an in-flight computation
  (the serving layer's singleflight leaders pin their keys) are never
  evicted, and eviction is advisory by construction: the cache is
  content-addressed, so losing an entry costs a recompute, never a
  wrong answer.

* **One cache-dir resolver** — :func:`resolve_cache_dir` is the single
  reader of ``REPRO_REPLAY_CACHE`` with an explicit contract:
  ``off`` (memory-only), ``auto``/unset (the XDG default), or a
  directory path.  A value naming an existing non-directory raises
  :class:`~repro.util.errors.ConfigurationError` instead of failing
  later inside a save.
"""

from __future__ import annotations

import hashlib
import os
import re
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from repro.util import artifacts
from repro.util.artifacts import ArtifactError
from repro.util.errors import ConfigurationError

#: values of ``REPRO_REPLAY_CACHE`` that disable persistence entirely
_OFF_VALUES = frozenset({"off", "0", "none", "false"})
#: values that mean "the default XDG location" (unset/empty included)
_AUTO_VALUES = frozenset({"auto", "on", "default"})

#: a trailing hex run of at least 8 characters is treated as the entry's
#: content digest (session keys end in 40-hex truncated SHA-256 digests)
_TRAILING_HEX = re.compile(r"([0-9a-f]{8,})$")

#: fraction of ``max_bytes`` eviction shrinks the store down to, so a
#: store sitting at its budget does not evict on every single save
_LOW_WATER = 0.8

_SIZE_SUFFIXES = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30}


def resolve_cache_dir(value: str | os.PathLike | None = None, *,
                      env: str = "REPRO_REPLAY_CACHE",
                      default_subdir: str = "replays") -> Path | None:
    """Resolve the replay-cache directory with the ``off|auto|<dir>`` contract.

    ``value=None`` reads *env* — ``REPRO_REPLAY_CACHE`` by default (the
    *only* place that environment variable is consulted; the trace tier
    passes ``REPRO_TRACE_CACHE``/``traces`` through the same contract).
    Returns ``None`` for ``off`` (and its synonyms
    ``0``/``none``/``false``), the XDG default
    (``$XDG_CACHE_HOME/repro/<default_subdir>``, ``~/.cache`` fallback)
    for ``auto``/empty/unset, and the named directory otherwise.  A value
    naming an existing *non-directory* raises
    :class:`ConfigurationError` — better at configuration time than as
    a mysterious ``OSError`` inside the first save.
    """
    if value is None:
        value = os.environ.get(env, "auto")
    text = os.fspath(value).strip() if not isinstance(value, str) else value.strip()
    low = text.lower()
    if low in _OFF_VALUES:
        return None
    if low in _AUTO_VALUES or text == "":
        base = Path(os.environ.get("XDG_CACHE_HOME", Path.home() / ".cache"))
        return base / "repro" / default_subdir
    path = Path(text)
    if path.exists() and not path.is_dir():
        raise ConfigurationError(
            f"{env}={text!r} names an existing non-directory; "
            f"expected 'off', 'auto', or a directory path")
    return path


def resolve_cache_bytes(value: str | int | None = None, *,
                        env: str = "REPRO_REPLAY_CACHE_BYTES") -> int | None:
    """Resolve the store's byte budget (``None`` = unbounded).

    ``value=None`` reads *env* (``REPRO_REPLAY_CACHE_BYTES`` by
    default).  Accepts a plain byte count or a ``K``/``M``/``G`` binary
    suffix (``256M``); ``0``/``off``/``none``/empty/unset mean
    unbounded.  Anything else — including a negative count — raises
    :class:`ConfigurationError`.
    """
    if value is None:
        value = os.environ.get(env, "")
    if isinstance(value, int):
        if value < 0:
            raise ConfigurationError(
                f"replay cache budget must be >= 0, got {value}")
        return value or None
    text = value.strip().lower()
    if text in ("", "off", "none", "0"):
        return None
    scale = 1
    if text[-1] in _SIZE_SUFFIXES:
        scale = _SIZE_SUFFIXES[text[-1]]
        text = text[:-1].strip()
    try:
        n = int(text)
    except ValueError:
        raise ConfigurationError(
            f"{env}={value!r} is not a byte count "
            f"(expected an integer, optionally with a K/M/G suffix)") from None
    if n < 0:
        raise ConfigurationError(
            f"replay cache budget must be >= 0, got {value!r}")
    return n * scale or None


def shard_for(name: str) -> str:
    """The 2-hex shard directory for one entry name."""
    m = _TRAILING_HEX.search(name)
    if m is not None:
        return m.group(1)[:2]
    return hashlib.sha256(name.encode()).hexdigest()[:2]


@dataclass
class StoreStats:
    """Observability counters for one store (surfaced on ``/metrics``)."""

    #: payloads served from disk
    loads: int = 0
    #: payloads written (or rewritten) to disk
    saves: int = 0
    #: entries deleted by LRU eviction
    evictions: int = 0
    #: bytes reclaimed by LRU eviction (payloads + sidecars)
    evicted_bytes: int = 0
    #: entries quarantined as ``*.corrupt`` on a failed load
    corrupt: int = 0
    #: evictions skipped because the entry was pinned by an in-flight
    #: computation
    pinned_skips: int = 0


@dataclass
class _Entry:
    path: Path
    mtime: float
    nbytes: int = 0
    sidecar: Path | None = None


@dataclass
class ReplayStore:
    """A sharded directory of versioned pickle artifacts with LRU bounds.

    Thread-safe: the serving layer loads, saves, pins, and evicts from
    several threads over one store.  All mutation of the pin table and
    all eviction scans hold the store lock; payload I/O itself relies on
    the artifact store's atomic-rename protocol, which already tolerates
    racing writers (last complete write wins, and every complete write
    of a content-addressed key has identical bytes).
    """

    root: Path
    max_bytes: int | None = None
    stats: StoreStats = field(default_factory=StoreStats)

    #: payload filename suffix — subclasses persisting a different
    #: artifact kind (the trace tier's raw binaries) override this so
    #: the shared sharding/LRU/pinning machinery finds their entries
    suffix = ".pkl"

    def __post_init__(self) -> None:
        self.root = Path(self.root)
        self._lock = threading.RLock()
        self._pins: dict[str, int] = {}
        self._ready = False

    # --- layout -----------------------------------------------------------
    def path_for(self, name: str) -> Path:
        """The sharded payload path for *name*
        (``<root>/<xx>/<name><suffix>``)."""
        return self.root / shard_for(name) / f"{name}{self.suffix}"

    def ensure(self) -> None:
        """Create the root, once.

        Raises ``OSError`` when the root cannot be created — the session
        catches it and degrades to memory-only.
        """
        with self._lock:
            if self._ready:
                return
            self.root.mkdir(parents=True, exist_ok=True)
            self._ready = True

    # --- load/save --------------------------------------------------------
    def load(self, name: str, *, version: int | None = None) -> Any | None:
        """Fetch one payload; corruption quarantines and returns ``None``.

        A hit refreshes the entry's mtime — the recency signal LRU
        eviction orders by.
        """
        self.ensure()
        path = self.path_for(name)
        if not path.exists():
            return None
        try:
            payload = artifacts.load_pickle(path, version=version)
        except ArtifactError:
            artifacts.quarantine(path)
            self.stats.corrupt += 1
            return None
        except OSError:
            return None
        self.stats.loads += 1
        try:
            os.utime(path)
        except OSError:
            pass
        return payload

    def save(self, name: str, payload: Any, *,
             version: int | None = None) -> None:
        """Atomically persist one payload, then enforce the byte budget.

        Propagates ``OSError``/``ArtifactError`` (e.g. a read-only
        store) — the session turns that into quiet memory-only
        degradation, exactly as before.
        """
        self.ensure()
        artifacts.save_pickle(self.path_for(name), payload, version=version)
        self.stats.saves += 1
        if self.max_bytes is not None:
            self.enforce_budget()

    # --- pinning ----------------------------------------------------------
    def pin(self, name: str) -> None:
        """Protect *name* from eviction until :meth:`unpin` (refcounted)."""
        with self._lock:
            self._pins[name] = self._pins.get(name, 0) + 1

    def unpin(self, name: str) -> None:
        with self._lock:
            n = self._pins.get(name, 0) - 1
            if n <= 0:
                self._pins.pop(name, None)
            else:
                self._pins[name] = n

    @contextmanager
    def pinned(self, *names: str) -> Iterator[None]:
        """Pin *names* for the duration of a with-block (singleflight
        leaders wrap their whole computation in this)."""
        for name in names:
            self.pin(name)
        try:
            yield
        finally:
            for name in names:
                self.unpin(name)

    def is_pinned(self, name: str) -> bool:
        with self._lock:
            return name in self._pins

    # --- size & eviction --------------------------------------------------
    def _entries(self) -> list[_Entry]:
        """Every payload in the store (shards and any stragglers at the
        root), oldest first, with sidecar sizes folded in."""
        entries: list[_Entry] = []
        if not self.root.is_dir():
            return entries
        for path in self.root.glob(f"**/*{self.suffix}"):
            try:
                st = path.stat()
            except OSError:
                continue
            entry = _Entry(path=path, mtime=st.st_mtime, nbytes=st.st_size)
            sidecar = artifacts.checksum_path(path)
            try:
                entry.nbytes += sidecar.stat().st_size
                entry.sidecar = sidecar
            except OSError:
                pass
            entries.append(entry)
        entries.sort(key=lambda e: (e.mtime, e.path.name))
        return entries

    def size_bytes(self) -> int:
        """Total payload + sidecar bytes currently on disk."""
        return sum(e.nbytes for e in self._entries())

    def enforce_budget(self) -> int:
        """Evict oldest-first down to the low-water mark; returns bytes
        freed.  No-op without a budget or while under it."""
        if self.max_bytes is None:
            return 0
        return self.evict(target_bytes=int(self.max_bytes * _LOW_WATER),
                          over_bytes=self.max_bytes)

    def evict(self, *, target_bytes: int,
              over_bytes: int | None = None) -> int:
        """Delete least-recently-used entries until the store holds at
        most *target_bytes* (checked against *over_bytes* first, when
        given — the high-water trigger).

        Pinned entries are never deleted: an in-flight singleflight
        computation's keys survive any concurrent eviction pass, so a
        leader can always read back what it just wrote.  Quarantined
        ``*.corrupt`` corpses are not entries and are left alone.
        """
        with self._lock:
            entries = self._entries()
            total = sum(e.nbytes for e in entries)
            if over_bytes is not None and total <= over_bytes:
                return 0
            freed = 0
            for entry in entries:
                if total - freed <= target_bytes:
                    break
                name = entry.path.name[:-len(self.suffix)]
                if name in self._pins:
                    self.stats.pinned_skips += 1
                    continue
                try:
                    entry.path.unlink()
                except OSError:
                    continue
                if entry.sidecar is not None:
                    entry.sidecar.unlink(missing_ok=True)
                freed += entry.nbytes
                self.stats.evictions += 1
                self.stats.evicted_bytes += entry.nbytes
            return freed

    # --- observability ----------------------------------------------------
    def describe(self) -> dict[str, Any]:
        """A JSON-ready snapshot (``SERVICE_REPORT.json`` / ``/v1/stats``)."""
        entries = self._entries()
        return {
            "root": str(self.root),
            "max_bytes": self.max_bytes,
            "entries": len(entries),
            "size_bytes": sum(e.nbytes for e in entries),
            "shards": len({e.path.parent.name for e in entries
                           if e.path.parent != self.root}),
            "loads": self.stats.loads,
            "saves": self.stats.saves,
            "evictions": self.stats.evictions,
            "evicted_bytes": self.stats.evicted_bytes,
            "corrupt": self.stats.corrupt,
            "pinned_skips": self.stats.pinned_skips,
        }


__all__ = ["ReplayStore", "StoreStats", "shard_for",
           "resolve_cache_dir", "resolve_cache_bytes"]
