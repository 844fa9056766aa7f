"""Mergeable log-bucketed streaming histograms (HDR-style).

The fixed-bucket histograms in :mod:`repro.obs.metrics` are fine for
offline pipeline telemetry, but a serving path needs latency
distributions that (a) cover sub-millisecond cache hits *and*
multi-second degraded tails without pre-declaring edges, (b) answer
quantile queries with a bounded relative error, (c) merge across
shards, windows, and processes without losing precision, and (d) can
carry *exemplars* — a trace id pinned to a bucket so a p99 outlier
links back to the request that caused it.

:class:`StreamingHistogram` buckets values geometrically: bucket ``i``
covers ``(min_value * g**i, min_value * g**(i+1)]`` with growth factor
``g = (1 + error)**2``, so the geometric midpoint of any bucket is
within ``error`` (default 5%) of every value inside it. Buckets are a
sparse dict, so the value range costs nothing to declare and only
occupied buckets use memory. Merging adds sparse counts — it is exact
(no re-bucketing error) and associative, which the shard/window tests
pin down.

:class:`WindowedHistogram` keeps a ring of sub-histograms, each
covering one time slot, and answers "the distribution over the last N
seconds" by merging the live slots — the serving layer uses it for the
recent-latency block in ``/healthz`` and the SLO burn windows build on
the same slot arithmetic (:mod:`repro.obs.slo`).
"""

from __future__ import annotations

import math
import threading
import time
from typing import Any, Callable, Iterator

#: Default bounded relative error for quantile estimates.
DEFAULT_ERROR = 0.05
#: Values at or below this land in the underflow bucket (1 us — far
#: below any observable request latency).
DEFAULT_MIN_VALUE = 1e-6

#: Bucket index of the underflow slot (values <= min_value).
UNDERFLOW = -1


class StreamingHistogram:
    """Log-bucketed histogram with bounded-error quantiles.

    Not thread-safe on its own; callers that share one instance across
    threads wrap it (``MetricsRegistry`` holds its lock,
    :class:`WindowedHistogram` brings its own).
    """

    __slots__ = (
        "error",
        "min_value",
        "_log_growth",
        "_counts",
        "count",
        "sum",
        "min",
        "max",
        "_exemplars",
    )

    def __init__(
        self,
        error: float = DEFAULT_ERROR,
        min_value: float = DEFAULT_MIN_VALUE,
    ) -> None:
        if not 0.0 < error < 1.0:
            raise ValueError(
                f"error must be in (0, 1), got {error}"
            )
        if min_value <= 0.0:
            raise ValueError(
                f"min_value must be positive, got {min_value}"
            )
        self.error = float(error)
        self.min_value = float(min_value)
        # Growth g = (1+e)^2: the geometric midpoint of a bucket is
        # sqrt(g) = 1+e away from either edge, giving the error bound.
        self._log_growth = 2.0 * math.log1p(self.error)
        self._counts: dict[int, int] = {}
        self.count = 0
        self.sum = 0.0
        self.min: float | None = None
        self.max: float | None = None
        #: bucket index -> (exemplar id, observed value); latest wins.
        self._exemplars: dict[int, tuple[str, float]] = {}

    # ------------------------------------------------------------------
    # Bucket arithmetic
    # ------------------------------------------------------------------
    def bucket_index(self, value: float) -> int:
        """The sparse bucket owning ``value`` (UNDERFLOW for tiny)."""
        if value <= self.min_value:
            return UNDERFLOW
        return int(
            math.floor(
                math.log(value / self.min_value) / self._log_growth
            )
        )

    def bucket_upper(self, index: int) -> float:
        """Inclusive upper edge of a bucket (``le`` semantics)."""
        if index == UNDERFLOW:
            return self.min_value
        return self.min_value * math.exp(
            self._log_growth * (index + 1)
        )

    def _bucket_estimate(self, index: int) -> float:
        """Bounded-error representative value for a bucket."""
        if index == UNDERFLOW:
            estimate = self.min_value
        else:
            estimate = self.min_value * math.exp(
                self._log_growth * (index + 0.5)
            )
        # Clamping to the observed range never worsens the bound and
        # makes single-value histograms exact.
        if self.min is not None:
            estimate = max(estimate, self.min)
        if self.max is not None:
            estimate = min(estimate, self.max)
        return estimate

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def observe(
        self,
        value: float,
        exemplar: str | None = None,
        count: int = 1,
    ) -> None:
        """Record ``value`` ``count`` times (``sum`` gains
        ``value * count``)."""
        value = float(value)
        if math.isnan(value):
            raise ValueError("cannot observe NaN")
        if count < 1:
            raise ValueError(f"count must be positive, got {count}")
        index = self.bucket_index(value)
        self._counts[index] = self._counts.get(index, 0) + count
        self.count += count
        self.sum += value * count
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if exemplar is not None:
            self._exemplars[index] = (str(exemplar), value)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def quantile(self, q: float) -> float | None:
        """Nearest-rank quantile estimate, within ``error`` relative
        to the exact sorted-sample quantile. ``None`` when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        if self.count == 0:
            return None
        rank = max(1, math.ceil(q * self.count))
        cumulative = 0
        for index in sorted(self._counts):
            cumulative += self._counts[index]
            if cumulative >= rank:
                return self._bucket_estimate(index)
        # Unreachable: cumulative always reaches self.count.
        return self._bucket_estimate(max(self._counts))

    def quantiles(self, qs: tuple[float, ...]) -> list[float | None]:
        return [self.quantile(q) for q in qs]

    def cumulative_buckets(
        self,
    ) -> Iterator[tuple[float, int, tuple[str, float] | None]]:
        """``(le_edge, cumulative_count, exemplar)`` per occupied
        bucket, ascending — the Prometheus ``_bucket`` series."""
        cumulative = 0
        for index in sorted(self._counts):
            cumulative += self._counts[index]
            yield (
                self.bucket_upper(index),
                cumulative,
                self._exemplars.get(index),
            )

    # ------------------------------------------------------------------
    # Merging
    # ------------------------------------------------------------------
    def _check_compatible(self, other: "StreamingHistogram") -> None:
        if (
            self.error != other.error
            or self.min_value != other.min_value
        ):
            raise ValueError(
                "cannot merge histograms with different bucket "
                f"layouts: (error={self.error}, "
                f"min_value={self.min_value}) vs "
                f"(error={other.error}, min_value={other.min_value})"
            )

    def merge(self, other: "StreamingHistogram") -> None:
        """Fold another histogram in (exact; associative)."""
        self._check_compatible(other)
        for index, count in other._counts.items():
            self._counts[index] = (
                self._counts.get(index, 0) + count
            )
        self.count += other.count
        self.sum += other.sum
        if other.min is not None and (
            self.min is None or other.min < self.min
        ):
            self.min = other.min
        if other.max is not None and (
            self.max is None or other.max > self.max
        ):
            self.max = other.max
        self._exemplars.update(other._exemplars)

    def copy(self) -> "StreamingHistogram":
        clone = StreamingHistogram(self.error, self.min_value)
        clone.merge(self)
        return clone

    def clear(self) -> None:
        self._counts.clear()
        self._exemplars.clear()
        self.count = 0
        self.sum = 0.0
        self.min = None
        self.max = None

    # ------------------------------------------------------------------
    # Serialization (JSON-safe primitives only)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        buckets: list[float] = []
        counts: list[int] = []
        for index in sorted(self._counts):
            buckets.append(self.bucket_upper(index))
            counts.append(self._counts[index])
        return {
            "error": self.error,
            "min_value": self.min_value,
            "buckets": buckets,
            "counts": counts,
            "sum": self.sum,
            "count": self.count,
            "min": self.min,
            "max": self.max,
        }


class WindowedHistogram:
    """A rolling-window view over a :class:`StreamingHistogram`.

    The window is a ring of ``slots`` sub-histograms, each covering
    ``window_seconds / slots`` of wall time. Observations land in the
    current slot; a slot whose epoch has lapped is reset before reuse,
    so stale data ages out with no background thread. Thread-safe.
    """

    def __init__(
        self,
        window_seconds: float = 300.0,
        slots: int = 30,
        error: float = DEFAULT_ERROR,
        min_value: float = DEFAULT_MIN_VALUE,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if window_seconds <= 0:
            raise ValueError(
                f"window_seconds must be positive, got {window_seconds}"
            )
        if slots < 2:
            raise ValueError(f"need at least 2 slots, got {slots}")
        self.window_seconds = float(window_seconds)
        self.slots = int(slots)
        self.slot_seconds = self.window_seconds / self.slots
        self.error = error
        self.min_value = min_value
        self._clock = clock
        self._lock = threading.Lock()
        # slot position -> [slot epoch, sub-histogram]
        self._ring: list[list[Any]] = [
            [-1, StreamingHistogram(error, min_value)]
            for _ in range(self.slots)
        ]

    def _slot(self, now: float) -> "StreamingHistogram":
        epoch = int(now // self.slot_seconds)
        cell = self._ring[epoch % self.slots]
        if cell[0] != epoch:
            cell[1].clear()
            cell[0] = epoch
        return cell[1]

    def observe(
        self, value: float, exemplar: str | None = None
    ) -> None:
        with self._lock:
            self._slot(self._clock()).observe(value, exemplar)

    def merged(self) -> StreamingHistogram:
        """The distribution over the live window (fresh histogram)."""
        with self._lock:
            now_epoch = int(self._clock() // self.slot_seconds)
            total = StreamingHistogram(self.error, self.min_value)
            for epoch, histogram in self._ring:
                if epoch >= 0 and now_epoch - epoch < self.slots:
                    total.merge(histogram)
            return total

    def total_count(self) -> int:
        with self._lock:
            now_epoch = int(self._clock() // self.slot_seconds)
            return sum(
                histogram.count
                for epoch, histogram in self._ring
                if epoch >= 0 and now_epoch - epoch < self.slots
            )
