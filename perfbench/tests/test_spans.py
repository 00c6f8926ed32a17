"""Span nesting, self time per thread, and patching."""

from __future__ import annotations

import threading

import pytest

from perfbench.spans import Hook, Patches, Recorder, breakdown


class FakeClock:
    """A clock the test advances by hand (ns)."""

    def __init__(self) -> None:
        self.now = 0
        self.lock = threading.Lock()

    def __call__(self) -> int:
        return self.now

    def advance(self, ns: int) -> None:
        with self.lock:
            self.now += ns


def test_self_time_is_duration_minus_child_coverage():
    clock = FakeClock()
    rec = Recorder(clock)
    with rec.op("op"):
        clock.advance(5)
        with rec.span("a"):
            clock.advance(10)
            with rec.span("b"):
                clock.advance(30)
            clock.advance(10)
        with rec.span("c"):
            clock.advance(40)
        clock.advance(5)
    b = breakdown(rec, "op")
    assert b.op_ms == pytest.approx(100e-6)
    assert b.total_ms["a"] == pytest.approx(50e-6)
    assert b.self_ms["a"] == pytest.approx(20e-6)
    assert b.self_ms["b"] == pytest.approx(30e-6)
    assert b.self_ms["c"] == pytest.approx(40e-6)
    # the op's own thread spent 10 ns in no named span
    assert b.unattributed_pct == pytest.approx(10.0)


def test_rank_threads_nest_per_thread_and_sum_over_ranks():
    """Two rank threads inside one op: their spans belong to the op, nest on
    their own stacks, and never become children of the op's thread."""
    clock = FakeClock()
    rec = Recorder(clock)
    both_open = threading.Barrier(2)
    done = threading.Barrier(3)

    def rank() -> None:
        with rec.span("hydro"):
            with rec.span("barrier"):
                both_open.wait()
                done.wait()   # the main thread advances the clock here
                done.wait()

    with rec.op("job"):
        with rec.span("step"):
            threads = [threading.Thread(target=rank) for _ in range(2)]
            for t in threads:
                t.start()
            done.wait()
            clock.advance(100)
            done.wait()
            for t in threads:
                t.join(timeout=10)
                assert not t.is_alive()
    b = breakdown(rec, "job")
    # each rank: hydro 100 ns, all of it covered by its barrier child
    assert b.total_ms["barrier"] == pytest.approx(200e-6)
    assert b.self_ms["hydro"] == pytest.approx(0.0)
    # the main thread's step span is not charged with rank work
    assert b.self_ms["step"] == pytest.approx(100e-6)
    assert b.unattributed_pct == pytest.approx(0.0)


def test_spans_outside_ops_are_not_attributed():
    clock = FakeClock()
    rec = Recorder(clock)
    with rec.span("setup"):
        clock.advance(50)
    with rec.op("op"):
        clock.advance(10)
    b = breakdown(rec, "op")
    assert "setup" not in b.self_ms
    assert b.unattributed_pct == pytest.approx(100.0)


class Target:
    def method(self, x):
        return x + 1

    @staticmethod
    def static(x):
        return 2 * x


def plain(x):
    return x - 1


def test_patches_wrap_and_restore_methods_statics_and_globals():
    import sys

    rec = Recorder()
    module = sys.modules[__name__]
    originals = (Target.__dict__["method"], Target.__dict__["static"], plain)
    hooks = [Hook(Target, "method", "m"),
             Hook(Target, "static", "s",
                  lambda a, k, r: {"doubled": r}),
             Hook(module, "plain", "p")]
    with Patches(rec, hooks):
        with rec.op("op"):
            assert Target().method(1) == 2
            assert Target.static(3) == 6
            assert Target().static(4) == 8
            assert module.plain(5) == 4
    assert (Target.__dict__["method"], Target.__dict__["static"],
            module.plain) == originals
    b = breakdown(rec, "op")
    assert b.calls == {"m": 1, "s": 2, "p": 1}
    assert b.counts == {"doubled": 14}


def test_out_of_order_close_is_an_error():
    rec = Recorder()
    a = rec.open("a")
    rec.open("b")
    with pytest.raises(RuntimeError):
        rec.close(a)
