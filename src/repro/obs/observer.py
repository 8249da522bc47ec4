"""The observer facade every runtime threads its telemetry through.

Two operating points, chosen by the caller:

* ``observer=None`` (the default everywhere) — instrumentation off: the
  runtimes skip every instrumentation branch with one ``is not None``
  check per hot-path call site.
* :class:`Observer` — full recording: a
  :class:`~repro.obs.registry.MetricsRegistry` and a JSONL
  :class:`~repro.obs.events.EventLog`.

Clocks and determinism
----------------------

``Observer(clock=None)`` (the default) runs on *simulated* time: the
runtimes call :meth:`Observer.set_time` with the current tick, events
are stamped in ticks, and no wall clock is ever read — so attaching an
observer to a simulated or model-checked run changes nothing about the
run and produces byte-identical telemetry across repeats.  Pass
``clock=time.perf_counter`` (or :meth:`Observer.wall`) for real-time
runs (asyncio, TCP), where events are stamped in seconds.

Observers record; they never steer.  No runtime reads observer state to
make a decision, which is why the model checker's exploration results
are identical with and without one attached (``tests/test_obs.py``
proves it).
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Callable

from repro.obs.events import EventLog
from repro.obs.registry import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from pathlib import Path

    from repro.metrics.words import WordBill


class Observer:
    """Collects metrics and events for one run."""

    def __init__(self, clock: Callable[[], float] | None = None) -> None:
        self.registry = MetricsRegistry()
        self.events = EventLog()
        self._clock = clock
        self._now = 0.0  # simulated clock, advanced by the runtimes
        self._tick = -1  # last tick on_tick saw

    @classmethod
    def wall(cls) -> "Observer":
        """An observer on real time (event stamps in seconds)."""
        return cls(clock=time.perf_counter)

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------

    def time(self) -> float:
        return self._clock() if self._clock is not None else self._now

    def set_time(self, now: float) -> None:
        """Advance the simulated clock (ignored when a real clock is
        installed — ticks still arrive via :meth:`on_tick` counters)."""
        self._now = float(now)

    # ------------------------------------------------------------------
    # Generic recording surface
    # ------------------------------------------------------------------

    def count(self, name: str, amount: int = 1) -> None:
        self.registry.counter(name).inc(amount)

    def gauge(self, name: str, value: float) -> None:
        self.registry.gauge(name).set(value)

    def event(self, name: str, **fields: Any) -> None:
        self.events.append(name, at=self.time(), **fields)

    # ------------------------------------------------------------------
    # Runtime hooks (called by scheduler / asyncio runner / transports)
    # ------------------------------------------------------------------

    def on_tick(self, tick: int) -> None:
        """Called once per *visited* tick, in increasing order; the
        simulator skips ticks in which nothing happens, so ``sim.ticks``
        totals the ticks elapsed since the previous call, not the calls
        (a tick not above the last one seen starts another run)."""
        self._now = float(tick) if self._clock is None else self._now
        self.count("sim.ticks", tick - self._tick if tick > self._tick else 1)
        self._tick = tick

    def on_send(self, bill: "WordBill") -> None:
        """Account one billed multicast (the ledger's view of it): every
        counter moves by the bill's per-copy amount times its copies."""
        copies = bill.copies
        words = bill.words * copies
        self.count("words.total", words)
        self.count("messages.total", copies)
        if bill.signatures:
            self.count("signatures.total", bill.signatures * copies)
        origin = "correct" if bill.sender_correct else "byzantine"
        self.count(f"words.{origin}", words)
        self.count(f"words.scope.{bill.scope}", words)
        if bill.phase is not None:
            self.count(f"words.phase.{bill.phase}", words)

    def on_fault(self, kind: str, amount: int = 1) -> None:
        """Account one injected fault (``dropped``/``duplicated``/
        ``delayed``/``reset``)."""
        self.count(f"faults.{kind}", amount)

    def on_copies(self, copies: list[float]) -> None:
        """Account a fault injector's verdict on one send: ``copies``
        holds the sub-``delta`` delay of each wire copy (empty =
        dropped, more than one = duplicated)."""
        if not copies:
            self.on_fault("dropped")
            return
        if len(copies) > 1:
            self.on_fault("duplicated", len(copies) - 1)
        if any(delay > 0 for delay in copies):
            self.on_fault("delayed")

    def on_transport(self, kind: str, amount: int = 1) -> None:
        """Account one transport-level incident (e.g. ``reconnected``)."""
        self.count(f"transport.{kind}", amount)

    def on_recovery(self, kind: str, amount: int = 1) -> None:
        """Account one crash-recovery incident (``crash``/``restart``/
        ``replayed_ticks``/``resumed_sends``...); WAL size lands in the
        ``recovery.wal_bytes`` gauge."""
        self.count(f"recovery.{kind}", amount)

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Deterministically ordered, JSON-compatible state dump."""
        return {"metrics": self.registry.snapshot(), "events": len(self.events)}

    def write_events(self, path: "str | Path") -> "Path":
        return self.events.write_jsonl(path)

