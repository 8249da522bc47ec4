"""Metric primitives: counters and gauges.

The registry is deliberately tiny — a protocol run produces at most a
few hundred distinct series — and deliberately deterministic: metric
names are sorted in every snapshot and nothing in here reads a clock or
an RNG.  Two identical runs therefore produce byte-identical snapshots,
which is what lets tests assert on them and lets the model checker run
with instrumentation enabled without perturbing its fingerprints.
"""

from __future__ import annotations

from dataclasses import dataclass


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


class MetricsRegistry:
    """Named metric series, one instance per observed run."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}

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
        }
