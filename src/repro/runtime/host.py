"""What the three runtimes share besides the protocol generators.

A *host* is whatever drives correct processes: the tick scheduler
(:class:`~repro.runtime.scheduler.Simulation`) or the wall-clock
network of :mod:`repro.asyncnet` (asyncio queues and localhost TCP).
:class:`~repro.runtime.context.ProcessContext` needs only ``config``,
``seed``, ``suite``, ``trace``, ``recovery``, ``process_now(pid)`` and
``enqueue_send(pid, recipients, payload, scope)`` — one call per
multicast, billed once by :func:`bill_multicast` — from it; the helpers
here additionally read ``ledger`` and ``observer``.  Keeping the option cross-checks, the
waiting rule and the crash/rejoin choreography in one place is what
stops a fix from landing in one runtime and not the others.

Waiting: a protocol generator yields the ``ctx.now`` by which it wants
to run again (a bare ``yield``: the next tick) and is resumed earlier
only to be handed a delivery.  Every host, offline replay and ``join``
decide through :func:`wake_tick` and :func:`due` whether to call
``next()`` (``docs/runtime.md``, "Waiting").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, Sequence

from repro.config import ProcessId
from repro.errors import SchedulerError
from repro.runtime.context import ProcessContext
from repro.runtime.synchrony import LOCKSTEP, SynchronyModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults import FaultPlan
    from repro.recovery.manager import RecoveryManager
    from repro.recovery.replay import ReplayReport


def wake_tick(yielded: int | None, now: int) -> int:
    """The deadline a generator that yielded ``yielded`` at ``now`` set."""
    return now + 1 if yielded is None else yielded


def due(inbox: list, now: int, deadline: int) -> bool:
    """The one due rule: resume a waiting generator at ``now`` iff
    something was delivered to it or its deadline has come."""
    return bool(inbox) or now >= deadline


def check_seed(seed: object) -> None:
    """A run seed is a plain int: ``True`` would silently pick the master
    seed of ``"True"``, and a float fails deep inside a started run."""
    if type(seed) is not int:
        raise SchedulerError(
            f"seed must be an int, got {type(seed).__name__} {seed!r}"
        )


def resolve_synchrony(
    synchrony: SynchronyModel | None,
    fault_plan: "FaultPlan | None",
    recovery: "RecoveryManager | None",
) -> SynchronyModel:
    """Cross-check a host's run options and return its synchrony model
    (``None`` is the lockstep ``delta=1`` default)."""
    model = synchrony if synchrony is not None else LOCKSTEP
    if not isinstance(model, SynchronyModel):
        raise SchedulerError(
            f"synchrony must be a SynchronyModel, got {type(model).__name__}"
        )
    if not model.trivial and recovery is not None:
        raise SchedulerError(
            "crash recovery requires the lockstep delta=1 model: WAL "
            "replay is round-aligned, paced rounds and delivery laws are "
            "not (run recovery scenarios under the default synchrony)"
        )
    if fault_plan is not None and fault_plan.crashes and recovery is None:
        raise SchedulerError(
            "the fault plan schedules crash/restart faults but the run "
            "has no RecoveryManager: a crashed process can only rejoin "
            "by replaying durable state (pass recovery=...)"
        )
    return model


_PID_TYPES = frozenset({int})


def bill_multicast(
    host: Any,
    sender: ProcessId,
    recipients: Sequence[ProcessId],
    payload: object,
    *,
    tick: int,
    scope: str,
    sender_correct: bool,
) -> None:
    """Validate every recipient of one multicast, then bill it once: one
    ledger bill, one observer update and one WAL highwater frame.  The
    frame counts billed copies only — self-delivery is free, and counting
    it would desync replay from the word ledger."""
    processes = host.config.processes
    # A pid is an int (not a bool, not a float equal to one) of the
    # contiguous range ``processes``: the extremes bound every int.
    if recipients and not (
        _PID_TYPES.issuperset(map(type, recipients))
        and min(recipients) in processes
        and max(recipients) in processes
    ):
        unknown = next(
            to for to in recipients if type(to) is not int or to not in processes
        )
        raise SchedulerError(f"send to unknown process {unknown}")
    bill = host.ledger.record(
        tick=tick,
        sender=sender,
        receivers=recipients,
        payload=payload,
        scope=scope,
        sender_correct=sender_correct,
    )
    if bill is None:
        return
    if host.observer is not None:
        host.observer.on_send(bill)
    if sender_correct and host.recovery is not None:
        host.recovery.on_send(sender, tick, bill.copies)


def note_crash(
    host: Any, pid: ProcessId, tick: int, generator: Generator
) -> None:
    """``pid`` goes down at ``tick``: its state machine is unwound now
    (not whenever the GC finds it), its unflushed WAL tail dies with
    it, and the trace/observer record the crash."""
    generator.close()
    host.recovery.on_crash(pid, tick)
    host.trace.emit(tick=tick, pid=pid, scope="faults", name="crashed")
    if host.observer is not None:
        host.observer.event("crashed", pid=pid, tick=tick)
        host.observer.on_recovery("crash")


def rejoin_from_wal(
    host: Any,
    pid: ProcessId,
    factory: Callable[[ProcessContext], Generator[None, None, Any]],
    *,
    tick: int,
    down_since: int,
) -> "tuple[Generator[None, None, Any] | None, ProcessContext, ReplayReport]":
    """Rebuild a crashed process from its WAL so it can rejoin at ``tick``.

    Replays the durable history through every round before ``tick``
    (down-window rounds replay as empty inboxes, keeping the generator
    round-aligned with the cluster) on a fresh context and returns
    ``(generator, context, report)``; the generator's next resume
    executes round ``tick`` live.  When the protocol completed during
    replay the generator is ``None`` and the report carries the decision.
    """
    from repro.recovery.replay import replay_generator

    recovery = host.recovery
    recovery.on_restart(pid, tick, down_since)
    ctx = ProcessContext(host, pid)
    generator, report = replay_generator(
        factory, ctx, recovery.load(pid), until_tick=tick
    )
    recovery.note_replay(report)
    host.trace.emit(
        tick=tick, pid=pid, scope="faults", name="recovered",
        replayed_ticks=report.ticks_replayed,
        replayed_sends=report.sends_replayed,
    )
    obs = host.observer
    if obs is not None:
        obs.event(
            "recovered", pid=pid, tick=tick,
            replayed_ticks=report.ticks_replayed,
        )
        obs.on_recovery("restart")
        obs.on_recovery("replayed_ticks", report.ticks_replayed)
    return generator, ctx, report


def close_recovery(host: Any) -> None:
    """End of run: close every WAL and publish the durable size."""
    if host.recovery is not None:
        host.recovery.close()
        if host.observer is not None:
            host.observer.gauge(
                "recovery.wal_bytes", host.recovery.wal_bytes()
            )
