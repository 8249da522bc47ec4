"""Structured event trace of a simulation run.

Protocols emit events (``phase_non_silent``, ``fallback_started``,
``decided`` ...) through :meth:`ProcessContext.emit`, and hosts emit
theirs (``crashed``, ``recovered``, ``corrupted``, ``reconnected``);
benchmarks and tests read them back to verify the paper's structural
claims (silent phase counts, Lemma 6 / Lemma 8 fallback activation,
Figure 1's composition).  A trace built with an
:class:`~repro.obs.observer.Observer` forwards every event to it as it
is emitted, so the observer's event log carries the trace without any
host writing a fact twice.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass, field
from typing import TYPE_CHECKING, Any, Iterator

from repro.config import ProcessId

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.observer import Observer


@dataclass(frozen=True)
class TraceEvent:
    """One emitted event."""

    tick: int
    pid: ProcessId
    scope: str
    name: str
    data: tuple[tuple[str, Any], ...]

    def get(self, key: str, default: Any = None) -> Any:
        for k, v in self.data:
            if k == key:
                return v
        return default


@dataclass
class Trace:
    """Append-only event log with simple query helpers."""

    events: list[TraceEvent] = field(default_factory=list)
    _: KW_ONLY
    observer: "Observer | None" = field(default=None, repr=False, compare=False)
    """Receives each event as it is emitted (telemetry only)."""
    _fp: int = field(default=0, repr=False, compare=False)
    _fp_index: int = field(default=0, repr=False, compare=False)

    def fingerprint(self) -> int:
        """Running hash-chain over the event log.

        Lazily folds in only the events appended since the last call, so
        per-tick fingerprinting (the model checker calls this every
        tick) is amortized O(new events) instead of O(all events) — the
        old per-tick re-hash of the whole log was quadratic in run
        length.  Runs that never fingerprint pay nothing.
        """
        fp = self._fp
        events = self.events
        for i in range(self._fp_index, len(events)):
            fp = hash((fp, repr(events[i])))
        self._fp = fp
        self._fp_index = len(events)
        return fp

    def emit(
        self, *, tick: int, pid: ProcessId, scope: str, name: str, **data: Any
    ) -> None:
        event = TraceEvent(
            tick=tick,
            pid=pid,
            scope=scope,
            name=name,
            data=tuple(sorted(data.items())),
        )
        self.events.append(event)
        if self.observer is not None:
            self.observer.on_trace(event)

    def canonical(self) -> tuple[TraceEvent, ...]:
        """The events in a runtime-independent order.

        Within one tick the model imposes no order on different
        processes' events; the simulator happens to run pids in order,
        while the asyncio/TCP drivers interleave them arbitrarily.
        Comparing ``canonical()`` views asks exactly what determinism
        promises: the *same events at the same ticks*, nothing about
        scheduler interleaving.
        """
        return tuple(
            sorted(
                self.events,
                key=lambda e: (e.tick, e.pid, e.scope, e.name, repr(e.data)),
            )
        )

    def named(self, name: str) -> Iterator[TraceEvent]:
        return (e for e in self.events if e.name == name)

    def count(self, name: str) -> int:
        return sum(1 for e in self.events if e.name == name)

    def any(self, name: str) -> bool:
        return any(e.name == name for e in self.events)

    def by_pid(self, pid: ProcessId) -> Iterator[TraceEvent]:
        return (e for e in self.events if e.pid == pid)

    def scopes(self) -> set[str]:
        return {e.scope for e in self.events}
