"""The observer: the telemetry no other record of a run holds.

A run already records each of its facts once, in the component that
owns it: the :class:`~repro.metrics.words.WordLedger` bills words,
messages and signatures; the :class:`~repro.runtime.trace.Trace` holds
every event, protocol and host alike (``crashed``, ``recovered``,
``corrupted``, ``reconnected``); :class:`~repro.runtime.result.RunResult`
holds decisions, halting ticks, the final tick and truncation; and
:class:`~repro.recovery.manager.RecoveryStats` with
``RecoveryManager.wal_bytes()`` hold crashes, restarts, replayed ticks
and WAL sizes.  An observer keeps only what none of them has:

* fault-injector verdicts (``faults.*``) and transport deduplication
  (``transport.deduplicated``);
* the paced clock's ``sync.*`` counters and ``round_advanced`` events;
* soak campaign metrics (``soak.*``);
* a clock stamp on every event it logs.

A host builds its trace as ``Trace(observer=observer)``, and the trace hands
each event to :meth:`Observer.on_trace` as it is emitted, so the JSONL
event log is the run's one emitted stream — every trace event, once,
beside the observer's own events.

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
tick simulator calls :meth:`Observer.on_tick` with each tick it visits,
events are stamped in ticks, and no wall clock is ever read — so
attaching an observer to a simulated or model-checked run changes
nothing about the run and produces byte-identical telemetry across
repeats.  Pass ``clock=time.perf_counter`` (or :meth:`Observer.wall`)
for real-time runs (asyncio, TCP), where events are stamped in seconds.

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

    from repro.runtime.trace import TraceEvent


class Observer:
    """Collects metrics and events for one run."""

    def __init__(self, clock: Callable[[], float] | None = None) -> None:
        self.registry = MetricsRegistry()
        self.events = EventLog()
        self._clock = clock
        self._now = 0.0  # simulated clock, advanced by on_tick

    @classmethod
    def wall(cls) -> "Observer":
        """An observer on real time (event stamps in seconds)."""
        return cls(clock=time.perf_counter)

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------

    def time(self) -> float:
        return self._clock() if self._clock is not None else self._now

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
        """Called once per *visited* tick, in increasing order (the
        simulator skips ticks in which nothing happens): advances the
        simulated clock; a real clock ignores it."""
        self._now = float(tick)

    def on_trace(self, event: "TraceEvent") -> None:
        """Log one trace event as it is emitted, in the export's event
        shape (``tick``, ``pid``, ``scope``, ``data``) plus the stamp."""
        self.event(
            event.name, tick=event.tick, pid=event.pid, scope=event.scope,
            data=dict(event.data),
        )

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
        """Account one transport-level incident (``deduplicated``)."""
        self.count(f"transport.{kind}", amount)

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Deterministically ordered, JSON-compatible state dump."""
        return {"metrics": self.registry.snapshot(), "events": len(self.events)}

    def write_events(self, path: "str | Path") -> "Path":
        return self.events.write_jsonl(path)

