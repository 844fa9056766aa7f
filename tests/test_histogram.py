"""Tests for the log-bucketed streaming histogram (obs/histogram).

The contract under test: quantile estimates stay within the
configured relative error of the exact sorted-sample quantile on
random AND adversarial shapes; merge is exact and associative across
arbitrary shardings; rolling windows age data out deterministically
under a fake clock.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.obs.histogram import (
    DEFAULT_ERROR,
    StreamingHistogram,
    WindowedHistogram,
)

QS = (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0)


def exact_quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile on the exact sample (the reference)."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def assert_quantiles_within_bound(
    values: list[float], error: float = DEFAULT_ERROR
) -> None:
    histogram = StreamingHistogram(error=error)
    for value in values:
        histogram.observe(value)
    ordered = sorted(values)
    for q in QS:
        exact = exact_quantile(ordered, q)
        estimate = histogram.quantile(q)
        assert estimate is not None
        # Relative bound, with an absolute floor at min_value for
        # samples in the underflow bucket.
        tolerance = max(error * exact, histogram.min_value)
        assert abs(estimate - exact) <= tolerance, (
            f"q={q}: estimate {estimate} vs exact {exact}"
        )


class TestQuantileBound:
    def test_uniform_sample(self):
        rng = random.Random(7)
        assert_quantiles_within_bound(
            [rng.uniform(0.001, 2.0) for _ in range(4000)]
        )

    def test_lognormal_sample(self):
        """Latency-shaped: heavy right tail over 4 decades."""
        rng = random.Random(11)
        assert_quantiles_within_bound(
            [rng.lognormvariate(-5.0, 1.5) for _ in range(4000)]
        )

    def test_bimodal_sample(self):
        """Adversarial: cache hits (~100us) vs misses (~80ms) with
        nothing in between — the shape that breaks mean-based and
        fixed-bucket summaries."""
        rng = random.Random(13)
        values = [
            rng.gauss(1e-4, 1e-5)
            if i % 2
            else rng.gauss(8e-2, 8e-3)
            for i in range(3000)
        ]
        assert_quantiles_within_bound(
            [max(v, 1e-7) for v in values]
        )

    def test_single_value_sample_is_exact(self):
        histogram = StreamingHistogram()
        for _ in range(100):
            histogram.observe(0.125)
        for q in QS:
            assert histogram.quantile(q) == pytest.approx(0.125)

    def test_two_spike_sample(self):
        assert_quantiles_within_bound(
            [0.001] * 999 + [5.0]
        )

    def test_empty_histogram_returns_none(self):
        histogram = StreamingHistogram()
        assert histogram.quantile(0.5) is None
        assert histogram.quantiles((0.5, 0.99)) == [None, None]
        assert histogram.count == 0
        assert list(histogram.cumulative_buckets()) == []

    def test_tighter_error_tightens_estimates(self):
        rng = random.Random(17)
        assert_quantiles_within_bound(
            [rng.expovariate(10.0) + 1e-5 for _ in range(2000)],
            error=0.01,
        )

    def test_underflow_values_clamp_to_min_value(self):
        histogram = StreamingHistogram()
        histogram.observe(0.0)
        histogram.observe(1e-12)
        estimate = histogram.quantile(0.5)
        assert estimate is not None
        assert estimate <= histogram.min_value


class TestObserve:
    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            StreamingHistogram().observe(float("nan"))

    def test_tracks_count_sum_min_max(self):
        histogram = StreamingHistogram()
        for value in (0.5, 0.1, 0.9):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.sum == pytest.approx(1.5)
        assert histogram.min == 0.1
        assert histogram.max == 0.9

    def test_bulk_count_equals_repeated_observes(self):
        bulk, repeated = StreamingHistogram(), StreamingHistogram()
        for value in (0.25, 0.0, 3.0):
            bulk.observe(value, count=4)
            for _ in range(4):
                repeated.observe(value)
        assert bulk.to_dict() == repeated.to_dict()
        with pytest.raises(ValueError, match="count"):
            bulk.observe(1.0, count=0)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            StreamingHistogram(error=0.0)
        with pytest.raises(ValueError):
            StreamingHistogram(error=1.5)
        with pytest.raises(ValueError):
            StreamingHistogram(min_value=0.0)

    def test_quantile_argument_validation(self):
        histogram = StreamingHistogram()
        histogram.observe(1.0)
        with pytest.raises(ValueError):
            histogram.quantile(1.5)


class TestExemplars:
    def test_latest_exemplar_wins_per_bucket(self):
        histogram = StreamingHistogram()
        histogram.observe(0.01, exemplar="first")
        histogram.observe(0.0101, exemplar="second")
        buckets = list(histogram.cumulative_buckets())
        assert len(buckets) == 1
        _, count, exemplar = buckets[0]
        assert count == 2
        assert exemplar == ("second", 0.0101)

    def test_buckets_without_exemplars_carry_none(self):
        histogram = StreamingHistogram()
        histogram.observe(0.01)
        (_, _, exemplar), = histogram.cumulative_buckets()
        assert exemplar is None

    def test_cumulative_counts_ascend_to_total(self):
        histogram = StreamingHistogram()
        for value in (0.001, 0.01, 0.01, 1.0):
            histogram.observe(value)
        rows = list(histogram.cumulative_buckets())
        cumulative = [count for _, count, _ in rows]
        assert cumulative == sorted(cumulative)
        assert cumulative[-1] == histogram.count
        edges = [edge for edge, _, _ in rows]
        assert edges == sorted(edges)


def assert_same_histogram(
    a: StreamingHistogram, b: StreamingHistogram
) -> None:
    """Bucket-exact equality; ``sum`` only up to float addition
    order, which legitimately differs across merge orders."""
    left, right = a.to_dict(), b.to_dict()
    assert left.pop("sum") == pytest.approx(right.pop("sum"))
    assert left == right


class TestMerge:
    def shards(self, values, n, **kwargs):
        shards = [
            StreamingHistogram(**kwargs) for _ in range(n)
        ]
        for i, value in enumerate(values):
            shards[i % n].observe(value)
        return shards

    def test_merge_equals_single_histogram(self):
        rng = random.Random(19)
        values = [rng.lognormvariate(-4, 1) for _ in range(1200)]
        whole = StreamingHistogram()
        for value in values:
            whole.observe(value)
        merged = StreamingHistogram()
        for shard in self.shards(values, 5):
            merged.merge(shard)
        assert_same_histogram(merged, whole)

    def test_merge_is_associative(self):
        """(a+b)+c == a+(b+c) over identical inputs — the property
        that makes shard/window aggregation order-independent."""
        rng = random.Random(23)
        values = [rng.expovariate(5.0) + 1e-6 for _ in range(900)]
        a1, b1, c1 = self.shards(values, 3)
        a2, b2, c2 = self.shards(values, 3)

        left = a1.copy()
        left.merge(b1)
        left.merge(c1)

        bc = b2.copy()
        bc.merge(c2)
        right = a2.copy()
        right.merge(bc)

        assert_same_histogram(left, right)
        assert left.quantile(0.99) == right.quantile(0.99)

    def test_merge_empty_is_identity(self):
        histogram = StreamingHistogram()
        histogram.observe(0.2)
        before = histogram.to_dict()
        histogram.merge(StreamingHistogram())
        assert histogram.to_dict() == before

    def test_merge_rejects_incompatible_layouts(self):
        with pytest.raises(ValueError, match="bucket"):
            StreamingHistogram(error=0.05).merge(
                StreamingHistogram(error=0.01)
            )
        with pytest.raises(ValueError, match="bucket"):
            StreamingHistogram(min_value=1e-6).merge(
                StreamingHistogram(min_value=1e-3)
            )

    def test_merge_carries_exemplars(self):
        a = StreamingHistogram()
        b = StreamingHistogram()
        b.observe(0.5, exemplar="from-b")
        a.merge(b)
        (_, _, exemplar), = a.cumulative_buckets()
        assert exemplar == ("from-b", 0.5)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestWindowedHistogram:
    def test_recent_observations_are_visible(self):
        clock = FakeClock()
        window = WindowedHistogram(
            window_seconds=30.0, slots=3, clock=clock
        )
        window.observe(0.1)
        clock.advance(5.0)
        window.observe(0.2)
        merged = window.merged()
        assert merged.count == 2
        assert window.total_count() == 2

    def test_old_observations_age_out(self):
        clock = FakeClock()
        window = WindowedHistogram(
            window_seconds=30.0, slots=3, clock=clock
        )
        window.observe(0.1)
        clock.advance(31.0)
        assert window.total_count() == 0
        window.observe(0.2)
        merged = window.merged()
        assert merged.count == 1
        assert merged.min == 0.2

    def test_lapped_slot_is_reset_before_reuse(self):
        clock = FakeClock()
        window = WindowedHistogram(
            window_seconds=30.0, slots=3, clock=clock
        )
        window.observe(0.1)
        # One full lap later the same slot position comes up again;
        # the stale cell must not leak into the new epoch.
        clock.advance(30.0)
        window.observe(0.9)
        merged = window.merged()
        assert merged.count == 1
        assert merged.min == 0.9

    def test_merged_histogram_is_independent_copy(self):
        clock = FakeClock()
        window = WindowedHistogram(clock=clock)
        window.observe(0.1)
        snapshot = window.merged()
        window.observe(0.2)
        assert snapshot.count == 1

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            WindowedHistogram(window_seconds=0.0)
        with pytest.raises(ValueError):
            WindowedHistogram(slots=1)
