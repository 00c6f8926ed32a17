"""The sharded, size-bounded replay store and its cache-dir resolver.

Contracts from ``docs/performance_model.md`` ("Cache & concurrency
invariants") and ``docs/serving.md``: one sharded layout (an entry
left flat at the root is a miss that is rebuilt, and still counts
against the budget), LRU eviction that honours pins and a byte budget
under racing writers, and the single ``off|auto|<dir>`` / byte-count
resolver that raises ``ConfigurationError`` on malformed values instead
of silently changing cache behaviour.
"""

import os
import threading

import pytest

from repro.perfmodel.session import ReplaySession
from repro.perfmodel.store import (
    ReplayStore,
    resolve_cache_bytes,
    resolve_cache_dir,
    shard_for,
)
from repro.util import artifacts
from repro.util.errors import ConfigurationError

DIGEST = "0123456789abcdef0123456789abcdef01234567"


class TestResolverContract:
    """resolve_cache_dir / resolve_cache_bytes: the one env reader."""

    @pytest.mark.parametrize("value", ["off", "OFF", "0", "none", "false"])
    def test_off_values_disable_persistence(self, value):
        assert resolve_cache_dir(value) is None

    @pytest.mark.parametrize("value", ["auto", "on", "default", ""])
    def test_auto_values_use_xdg(self, value, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert resolve_cache_dir(value) == tmp_path / "repro" / "replays"

    def test_explicit_directory(self, tmp_path):
        assert resolve_cache_dir(str(tmp_path / "x")) == tmp_path / "x"

    def test_env_is_read_when_value_omitted(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_REPLAY_CACHE", str(tmp_path / "envdir"))
        assert resolve_cache_dir() == tmp_path / "envdir"
        monkeypatch.setenv("REPRO_REPLAY_CACHE", "off")
        assert resolve_cache_dir() is None

    def test_existing_non_directory_raises(self, tmp_path):
        bogus = tmp_path / "a-file"
        bogus.write_text("not a directory")
        with pytest.raises(ConfigurationError):
            resolve_cache_dir(str(bogus))

    def test_session_without_store_dir_honours_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_REPLAY_CACHE", "off")
        session = ReplaySession()
        assert session.store is None
        assert session.persist is False

    @pytest.mark.parametrize("value,expected", [
        ("", None), ("off", None), ("0", None), (0, None),
        ("1024", 1024), (2048, 2048),
        ("4K", 4 << 10), ("256M", 256 << 20), ("2g", 2 << 30),
        ("16 M", 16 << 20),
    ])
    def test_cache_bytes_values(self, value, expected):
        assert resolve_cache_bytes(value) == expected

    @pytest.mark.parametrize("value", ["lots", "12Q", "-5", -5, "M"])
    def test_cache_bytes_malformed_raises(self, value):
        with pytest.raises(ConfigurationError):
            resolve_cache_bytes(value)

    def test_cache_bytes_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_REPLAY_CACHE_BYTES", "8M")
        assert resolve_cache_bytes() == 8 << 20


class TestSharding:
    def test_shard_is_trailing_digest_prefix(self):
        assert shard_for(f"cfg-{DIGEST}") == DIGEST[:2]
        assert shard_for(f"memo-{DIGEST}") == DIGEST[:2]

    def test_undigested_name_still_shards(self):
        shard = shard_for("no-digest-here")
        assert len(shard) == 2
        int(shard, 16)  # two hex chars

    def test_save_lands_in_shard(self, tmp_path):
        store = ReplayStore(tmp_path)
        store.save(f"cfg-{DIGEST}", {"x": 1})
        path = tmp_path / DIGEST[:2] / f"cfg-{DIGEST}.pkl"
        assert path.exists()
        assert artifacts.checksum_path(path).exists()
        assert store.load(f"cfg-{DIGEST}") == {"x": 1}


class TestLoad:
    def test_flat_entry_is_a_miss_and_rebuilt(self, tmp_path):
        """An entry left at the root by a flat layout is never read:
        its key misses, and the rebuilt entry lands in its shard."""
        name = f"cfg-{DIGEST}"
        artifacts.save_pickle(tmp_path / f"{name}.pkl", {"stale": True})
        store = ReplayStore(tmp_path)
        assert store.load(name) is None
        store.save(name, {"fresh": True})
        assert store.load(name) == {"fresh": True}
        assert store.path_for(name).parent == tmp_path / DIGEST[:2]

    def test_corrupt_entry_quarantined(self, tmp_path):
        store = ReplayStore(tmp_path)
        name = f"cfg-{DIGEST}"
        store.save(name, {"ok": True})
        store.path_for(name).write_bytes(b"garbage")
        assert store.load(name) is None
        assert store.stats.corrupt == 1
        assert list(tmp_path.glob("**/*.corrupt"))


class TestEviction:
    def _fill(self, store: ReplayStore, n: int, *, prefix="cfg",
              size: int = 2000) -> list[str]:
        names = [f"{prefix}-{i:040x}" for i in range(n)]
        for i, name in enumerate(names):
            store.save(name, os.urandom(size))
            # distinct, strictly increasing mtimes (filesystem clocks can
            # be coarse): entry i is older than entry i+1
            os.utime(store.path_for(name), (1_000_000 + i, 1_000_000 + i))
        return names

    def test_budget_enforced_oldest_first(self, tmp_path):
        store = ReplayStore(tmp_path, max_bytes=100_000)
        names = self._fill(store, 8, size=30_000)
        # saves enforce on the way: total stays under the budget
        assert store.size_bytes() <= 100_000
        assert store.stats.evictions > 0
        # the newest entry always survives
        assert store.path_for(names[-1]).exists()
        # the oldest is the one that went
        assert not store.path_for(names[0]).exists()

    def test_budget_evicts_a_flat_straggler(self, tmp_path):
        """A root-level leftover counts against the budget and, being
        the oldest entry, is the first to go."""
        straggler = tmp_path / f"cfg-{DIGEST}.pkl"
        artifacts.save_pickle(straggler, os.urandom(30_000))
        os.utime(straggler, (1_000, 1_000))
        store = ReplayStore(tmp_path, max_bytes=100_000)
        assert store.size_bytes() > 30_000
        self._fill(store, 3, size=30_000)
        assert not straggler.exists()
        assert not artifacts.checksum_path(straggler).exists()
        assert store.size_bytes() <= 100_000

    def test_low_water_hysteresis(self, tmp_path):
        store = ReplayStore(tmp_path, max_bytes=100_000)
        self._fill(store, 8, size=30_000)
        # after the final enforcement the store is at/below low water,
        # so the next enforcement is a no-op
        assert store.size_bytes() <= 80_000
        assert store.enforce_budget() == 0

    def test_pinned_entry_never_evicted(self, tmp_path):
        store = ReplayStore(tmp_path)  # unbounded: fill without evicting
        names = self._fill(store, 1, size=2000)
        with store.pinned(names[0]):
            store.evict(target_bytes=0)
            assert store.path_for(names[0]).exists()
            assert store.stats.pinned_skips > 0
        # unpinned, it is fair game
        store.evict(target_bytes=0)
        assert not store.path_for(names[0]).exists()

    def test_pins_are_refcounted(self, tmp_path):
        store = ReplayStore(tmp_path)
        store.pin("x")
        store.pin("x")
        store.unpin("x")
        assert store.is_pinned("x")
        store.unpin("x")
        assert not store.is_pinned("x")

    def test_load_refreshes_recency(self, tmp_path):
        store = ReplayStore(tmp_path, max_bytes=None)
        names = self._fill(store, 4, size=2000)
        store.load(names[0])  # utime() bumps the oldest entry to now
        entries = store._entries()
        assert entries[-1].path == store.path_for(names[0])

    def test_lru_bound_under_racing_writers(self, tmp_path):
        """Concurrent saves from many threads never leave the store
        over budget once the dust settles (the serving layer's pattern:
        one shared bounded store, writers racing)."""
        budget = 60_000
        store = ReplayStore(tmp_path, max_bytes=budget)
        errors: list[BaseException] = []

        def writer(base: int) -> None:
            try:
                for i in range(10):
                    store.save(f"cfg-{base + i:040x}", os.urandom(3000))
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(k * 100,))
                   for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        store.enforce_budget()
        assert store.size_bytes() <= budget
        # and everything still on disk loads cleanly
        for entry in store._entries():
            name = entry.path.name[:-len(".pkl")]
            assert store.load(name) is not None

    def test_describe_is_json_ready(self, tmp_path):
        import json
        store = ReplayStore(tmp_path, max_bytes=12345)
        self._fill(store, 3, size=500)
        doc = store.describe()
        json.dumps(doc)
        assert doc["entries"] == 3
        assert doc["max_bytes"] == 12345
        assert doc["shards"] == len({shard_for(f"cfg-{i:040x}")
                                     for i in range(3)})


class TestSessionIntegration:
    def test_session_store_is_sharded_and_bounded(self, tmp_path):
        session = ReplaySession(store_dir=tmp_path, max_bytes=123456)
        store = session.store
        assert store is not None
        assert store.max_bytes == 123456
        session.memo("t", ("a",), lambda: "payload")
        key = ReplaySession.memo_key("t", ("a",))
        assert (tmp_path / key[:2] / f"memo-{key}.pkl").exists()

    def test_unwritable_store_degrades_to_memory(self, tmp_path):
        target = tmp_path / "blocked"
        target.write_text("file, not dir")  # mkdir will fail
        session = ReplaySession(store_dir=target)
        assert session.store is None
        assert session.memo("t", ("a",), lambda: 42) == 42
