"""Percentile selection, sample counts and failure accounting."""

from __future__ import annotations

import pytest

from perfbench.stats import OpLedger, beyond, median, percentile


def test_nearest_rank_percentile_picks_a_sample():
    samples = [float(x) for x in range(1, 101)]  # 1..100
    assert percentile(samples, 50) == 50.0
    assert percentile(samples, 99) == 99.0
    assert percentile(samples, 100) == 100.0
    assert percentile([7.0], 99) == 7.0
    # order of arrival does not matter
    assert percentile(list(reversed(samples)), 99) == 99.0


def test_p99_leaves_the_right_number_of_samples_beyond_it():
    samples = [float(x) for x in range(1000)]
    assert beyond(samples, 99) == 10
    # a run of eight steps: p99 is the slowest, nothing lies beyond it
    assert beyond([float(x) for x in range(8)], 99) == 0


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_median_even_and_odd():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5


def test_failures_are_counted_not_dropped():
    ledger = OpLedger()
    ledger.ok("cold", 10.0)
    ledger.fail("cold", "text sha mismatch")
    ledger.ok("warm", 2.0)
    assert (ledger.attempted, ledger.failed) == (3, 1)
    assert ledger.samples(("cold",)) == [10.0]
    assert ledger.samples(("cold", "warm")) == [10.0, 2.0]
    assert ledger.failed_frac == pytest.approx(1 / 3)
    assert ledger.errors == ["cold: text sha mismatch"]


def test_fail_since_turns_a_cycles_ops_into_failures():
    ledger = OpLedger()
    ledger.ok("step", 1.0)
    mark = ledger.mark()
    ledger.ok("step", 2.0)
    ledger.ok("step+", 3.0)
    ledger.fail_since(mark, "cycle digest differs")
    assert ledger.attempted == 3
    assert ledger.failed == 2
    assert ledger.samples(("step", "step+")) == [1.0]
    assert ledger.errors == ["cycle digest differs"]


def test_no_attempt_is_total_failure():
    assert OpLedger().failed_frac == 1.0
