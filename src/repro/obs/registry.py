"""Metric primitives: counters, gauges, fixed-bucket histograms.

The registry is deliberately tiny — a protocol run produces at most a
few hundred distinct series — and deliberately deterministic: metric
names are sorted in every snapshot, histogram bucket boundaries are
fixed at creation (never derived from the data), and nothing in here
reads a clock or an RNG.  Two identical runs therefore produce
byte-identical snapshots, which is what lets tests assert on them and
lets the model checker run with instrumentation enabled without
perturbing its fingerprints.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

DEFAULT_BUCKETS: tuple[float, ...] = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000)
"""Generic magnitude buckets (word counts, queue depths, tick spans)."""



@dataclass
class Counter:
    """A monotonically increasing count."""

    value: int = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up; got {amount}")
        self.value += amount


@dataclass
class Gauge:
    """A point-in-time value (last write wins)."""

    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value


@dataclass
class Histogram:
    """Fixed-boundary histogram: ``counts[i]`` holds observations
    ``<= buckets[i]``; the final slot is the overflow bucket.

    Boundaries are frozen at construction so the shape of the output
    never depends on the data — a requirement for deterministic,
    diffable snapshots.
    """

    buckets: tuple[float, ...] = DEFAULT_BUCKETS
    counts: list[int] = field(default_factory=list)
    total: int = 0
    sum: float = 0.0
    min: float | None = None
    max: float | None = None

    def __post_init__(self) -> None:
        if not self.buckets or list(self.buckets) != sorted(self.buckets):
            raise ValueError(f"bucket boundaries must be sorted, got {self.buckets}")
        if not self.counts:
            self.counts = [0] * (len(self.buckets) + 1)

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.buckets, value)] += 1
        self.total += 1
        self.sum += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def to_dict(self) -> dict:
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "count": self.total,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }


class MetricsRegistry:
    """Named metric series, one instance per observed run."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter()
        return counter

    def gauge(self, name: str) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge()
        return gauge

    def histogram(
        self, name: str, buckets: tuple[float, ...] = DEFAULT_BUCKETS
    ) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(buckets=buckets)
        elif tuple(histogram.buckets) != tuple(buckets):
            raise ValueError(
                f"histogram {name!r} already exists with boundaries "
                f"{histogram.buckets}; refusing to re-bucket"
            )
        return histogram

    def snapshot(self) -> dict:
        """A JSON-compatible, deterministically ordered dump."""
        return {
            "counters": {
                name: self._counters[name].value
                for name in sorted(self._counters)
            },
            "gauges": {
                name: self._gauges[name].value for name in sorted(self._gauges)
            },
            "histograms": {
                name: self._histograms[name].to_dict()
                for name in sorted(self._histograms)
            },
        }
