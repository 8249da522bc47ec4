"""Deterministic replay: rebuild a crashed process from its WAL.

The state machine of a correct process is a Python generator, so its
locals cannot be persisted directly.  What *can* be persisted — and what
the WAL holds — is everything the generator ever observed: the seeded
environment (``n``, ``t``, seed, pid fix the
:class:`~repro.crypto.certificates.CryptoSuite` and the per-process
``ctx.rng``) plus the per-tick inboxes.  Replay therefore re-executes
the generator over the logged inboxes with the context in *replay mode*
(:meth:`~repro.runtime.context.ProcessContext.begin_replay`): sends and
trace events are suppressed — the network already saw them — but sends
are still counted, and each tick's count is checked against the logged
sent-message highwater mark.  A mismatch means the replayed machine is
not the one that crashed (non-determinism crept in, or the WAL belongs
to a different deployment), and recovery refuses it with a
:class:`~repro.errors.RecoveryError` instead of rejoining with silently
divergent state.

Down windows replay as empty inboxes: while the process was down the
network discarded its deliveries, so an empty round is *exactly* what a
live-but-isolated process would have observed.  This keeps the
generator tick-aligned with the cluster — the property agreement hangs
on — and its send counts during those ticks are suppressed and exempt
from highwater checks (the process never sent while down).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Generator

from repro.errors import RecoveryError
from repro.recovery.wal import ProcessHistory, load_history
from repro.runtime.host import due, wake_tick

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.context import ProcessContext


class ReplayCursor:
    """Mutable position of an in-progress replay.

    The context reports suppressed sends/events back through
    :meth:`note_send` / :meth:`note_event`; the replay loop stamps
    ``ctx.now`` itself (protocol timers like "wait until ``now + 2``"
    must see replay time, not live time).
    """

    def __init__(self) -> None:
        self.sends_this_tick = 0
        self.total_sends = 0
        self.total_events = 0

    def begin_tick(self) -> None:
        self.sends_this_tick = 0

    def note_send(self, count: int) -> None:
        """Count ``count`` suppressed copies (one multicast's billed
        recipients)."""
        self.sends_this_tick += count
        self.total_sends += count

    def note_event(self) -> None:
        self.total_events += 1


@dataclass
class ReplayReport:
    """What one replay did and found."""

    pid: int
    ticks_replayed: int = 0
    sends_replayed: int = 0
    phantom_sends: int = 0
    """Sends the replayed machine attempted during down-window ticks.
    The live cluster never saw these (the process was dead), so they are
    excluded when comparing a replay against the run's word ledger."""
    events_replayed: int = 0
    decided: bool = False
    decision: Any = None
    duration_seconds: float = 0.0
    resumed_at_tick: int = 0
    wake_at: int = 0
    """The wake-up deadline the generator last yielded: a host resuming
    it live waits for that tick (or a delivery), as the original did."""
    down_windows: list[tuple[int, int]] = field(default_factory=list)

    def summary(self) -> dict[str, Any]:
        return {
            "pid": self.pid,
            "ticks_replayed": self.ticks_replayed,
            "sends_replayed": self.sends_replayed,
            "phantom_sends": self.phantom_sends,
            "events_replayed": self.events_replayed,
            "decided": self.decided,
            "resumed_at_tick": self.resumed_at_tick,
            "duration_seconds": self.duration_seconds,
        }


def replay_generator(
    factory: Callable[["ProcessContext"], Generator[None, None, Any]],
    ctx: "ProcessContext",
    history: ProcessHistory,
    *,
    until_tick: int,
    run_on_ticks: int = 0,
) -> tuple[Generator[None, None, Any] | None, ReplayReport]:
    """Re-drive ``factory(ctx)`` through ticks ``[0, until_tick)``.

    Returns ``(generator, report)``.  The generator is positioned to be
    resumed live from ``until_tick`` on, when it is next due
    (``report.wake_at`` is its pending deadline), or ``None`` if the
    protocol returned during replay — the report then carries the
    decision.  Replay resumes it exactly where a live host would have:
    at the ticks with a logged inbox and at its own deadlines.

    ``run_on_ticks`` extends the replay past ``until_tick`` with empty
    inboxes while the generator is still alive (offline replay: the
    WAL only records non-empty ticks, so a silent protocol tail — and
    the decision at its end — lies beyond ``through_tick``).  Ticks a
    process spent silent were never logged, so the highwater check
    still applies there with an expected count of zero.  Past
    ``until_tick`` every inbox is empty, so the loop jumps straight to
    the generator's next deadline: a long silent tail costs one step
    per wake-up, not one per tick.

    Raises :class:`~repro.errors.RecoveryError` when a tick's replayed
    send count diverges from the logged highwater mark (outside down
    windows, where no marks exist).
    """
    report = ReplayReport(pid=ctx.pid, resumed_at_tick=until_tick)
    report.down_windows = list(history.down_windows)
    cursor = ReplayCursor()
    gen = factory(ctx)
    started = time.perf_counter()
    ctx.begin_replay(cursor)
    horizon = until_tick + run_on_ticks
    tick = 0
    try:
        while tick < horizon:
            cursor.begin_tick()
            inbox = list(history.inboxes.get(tick, []))
            if due(inbox, tick, report.wake_at):
                ctx.now, ctx.inbox = tick, inbox
                try:
                    report.wake_at = wake_tick(next(gen), tick)
                except StopIteration as stop:
                    report.decided = True
                    report.decision = stop.value
                    report.ticks_replayed = tick + 1
                    gen = None
                    break
            if history.was_down(tick):
                report.phantom_sends += cursor.sends_this_tick
            else:
                expected = history.sends.get(tick, 0)
                if cursor.sends_this_tick != expected:
                    raise RecoveryError(
                        f"replay diverged for process {ctx.pid} at tick "
                        f"{tick}: replayed {cursor.sends_this_tick} send(s) "
                        f"but the WAL highwater mark says {expected}; "
                        f"refusing to rejoin with divergent state"
                    )
            tick += 1
            if tick >= until_tick:
                tick = max(tick, report.wake_at)
        else:
            report.ticks_replayed = horizon
    finally:
        ctx.end_replay()
        report.sends_replayed = cursor.total_sends
        report.events_replayed = cursor.total_events
        report.duration_seconds = time.perf_counter() - started
    return gen, report


# ----------------------------------------------------------------------
# Offline replay (``repro recover replay``): factory from WAL metadata
# ----------------------------------------------------------------------


def factory_from_meta(meta: dict) -> Callable:
    """Rebuild the protocol factory a WAL's ``meta`` record describes:
    the table entry's ``build(meta)``, the call the live run made."""
    from repro.protocols.table import PROTOCOLS

    name = meta.get("protocol")
    if not name:
        # run_protocol stamps this itself; run_async / run_over_tcp / a
        # hand-populated Simulation take caller-built factories and can
        # only stamp n/t/seed.
        raise RecoveryError(
            "WAL metadata names no protocol; cannot rebuild its state "
            "machine.  Runs with hand-built factories must stamp it "
            "before starting: RecoveryManager.describe(protocol=...) "
            "plus describe_process(pid, input=...) for per-process "
            "inputs — or pass replay_wal(..., factory=...)"
        )
    entry = PROTOCOLS.get(name)
    if entry is None:
        raise RecoveryError(
            f"no replay builder registered for protocol {name!r} "
            f"(known: {sorted(PROTOCOLS)})"
        )
    return entry.build(meta)


def replay_wal(
    stem: str | Path,
    *,
    factory: Callable | None = None,
    strict: bool = False,
) -> ReplayReport:
    """Offline replay of one process's durable state.

    Loads ``<stem>.wal``, rebuilds the deployment from
    the ``meta`` record (``n``, ``t``, seed fix the crypto suite and
    rngs), and re-drives the protocol through every recorded tick.  The
    returned report carries tick/send/event counts, the wall-clock
    replay duration, and the decision if the protocol completed by the
    run's horizon.
    """
    history = load_history(stem, strict=strict)
    return replay_history(history, factory=factory)


def replay_history(
    history: ProcessHistory,
    *,
    factory: Callable | None = None,
) -> ReplayReport:
    """Replay an already-loaded :class:`ProcessHistory` offline."""
    from repro.config import RunParameters, SystemConfig
    from repro.runtime.context import ProcessContext
    from repro.runtime.scheduler import Simulation

    meta = history.meta
    for key in ("n", "t", "seed", "pid"):
        if key not in meta:
            raise RecoveryError(
                f"WAL metadata lacks {key!r}; cannot rebuild the deployment "
                f"(present keys: {sorted(meta)})"
            )
    config = SystemConfig(n=meta["n"], t=meta["t"])
    simulation = Simulation(config, seed=meta["seed"])
    ctx = ProcessContext(simulation, meta["pid"])
    if factory is None:
        factory = factory_from_meta(meta)
    # Run a silent tail on through the live run's own horizon (a WAL
    # without one gets the simulator's default): a generator still
    # alive there never decided within its durable state.
    horizon = meta.get("max_ticks", RunParameters.max_ticks) + 1
    until_tick = history.through_tick + 1
    _, report = replay_generator(
        factory,
        ctx,
        history,
        until_tick=until_tick,
        run_on_ticks=max(0, horizon - until_tick),
    )
    return report
