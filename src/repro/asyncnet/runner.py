"""The asyncio protocol runner.

Design: each correct process is an asyncio task driving its protocol
generator.  A ``yield`` in protocol code means "end of my current
round": the task parks at the boundary into the next round, then drains
its queue into ``ctx.inbox`` and resumes the generator.

Rounds run on a **completion clock**: the boundary into round ``k``
opens once every live participant (the driver of each correct process,
crash windows included, and of each Byzantine behavior) has parked at
it and every copy due in round ``k`` has landed or been written off as
lost — at the latest ``tick_duration`` (the synchrony bound δ) after
round ``k - 1`` opened, a round the observer counts in
``sync.timeout_fired``.  It is certificate-∨-timeout with *everyone has
spoken and been heard* as the certificate, visible because every node
of a run shares one event loop; only a lost copy or a stalled
participant costs δ.  Round numbers and ``delivered_at`` stamps, hence
traces, are the simulator's.

Messages are delivered through per-process ``asyncio.Queue``s after an
optional artificial ``latency`` (keep it under ``tick_duration``, the
synchrony bound).  Nothing protocol-facing is re-implemented here:
:class:`AsyncNetwork` is a *host* (:mod:`repro.runtime.host`) for the
simulator's own :class:`~repro.runtime.context.ProcessContext` and
:class:`~repro.runtime.byzantine.ByzantineApi`, and runs return the
simulator's :class:`~repro.runtime.result.RunResult`.  The localhost TCP
transport (:mod:`repro.asyncnet.tcp`) shares this module's driver loop
and send path; a transport only decides how one envelope copy reaches
the receiver's queue and what a node does when its process crashes and
rejoins.
"""

from __future__ import annotations

import asyncio
from typing import TYPE_CHECKING, Any, Callable, Generator, Sequence

from repro.config import ProcessId, SystemConfig
from repro.crypto.certificates import CryptoSuite
from repro.errors import SchedulerError, TerminationViolation
from repro.faults import FaultInjector, FaultPlan
from repro.metrics.words import WordLedger
from repro.obs.observer import Observer
from repro.runtime.byzantine import ByzantineApi
from repro.runtime.context import ProcessContext
from repro.runtime.envelope import Envelope
from repro.runtime.host import (
    bill_multicast,
    check_seed,
    due,
    note_crash,
    rejoin_from_wal,
    resolve_synchrony,
    wake_tick,
)
from repro.runtime.result import RunResult
from repro.runtime.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.recovery.manager import RecoveryManager


class AsyncNetwork:
    """Shared state of one wall-clock protocol run (asyncio or TCP)."""

    def __init__(
        self,
        config: SystemConfig,
        *,
        seed: int = 0,
        tick_duration: float = 0.02,
        latency: float = 0.0,
        fault_plan: FaultPlan | None = None,
        observer: Observer | None = None,
        recovery: "RecoveryManager | None" = None,
    ) -> None:
        check_seed(seed)
        resolve_synchrony(None, fault_plan, recovery)  # crashes need recovery
        if latency >= tick_duration:
            raise SchedulerError(
                f"latency ({latency}) must stay below the synchrony bound "
                f"tick_duration ({tick_duration})"
            )
        if fault_plan is not None and (
            latency + fault_plan.max_delay * tick_duration >= tick_duration
        ):
            raise SchedulerError(
                f"fault_plan.max_delay ({fault_plan.max_delay}) plus latency "
                f"({latency}) must stay below the synchrony bound "
                f"tick_duration ({tick_duration})"
            )
        self.config = config
        self.seed = seed
        self.suite = CryptoSuite(config, seed=seed)
        self.tick_duration = tick_duration
        self.latency = latency
        self.fault_plan = fault_plan
        self.injector = FaultInjector(fault_plan) if fault_plan is not None else None
        self.ledger = WordLedger()
        self.trace = Trace(observer=observer)
        self.recovery = recovery
        self.queues: dict[ProcessId, asyncio.Queue] = {}
        self.corrupted: set[ProcessId] = set()
        self.recovered: set[ProcessId] = set()
        self.rounds: dict[ProcessId, int] = {}
        """The round each process (or behavior) is currently executing —
        what ``ctx.now`` reports.  Wall-clock rounds are per-process:
        tasks cross a boundary one after another, not atomically."""
        self.nodes: dict[ProcessId, Any] = {}
        """Per-process transport nodes (:func:`~repro.asyncnet.tcp.
        run_over_tcp` installs its ``TcpProcessNode``s); a sender
        without one delivers straight into the receiver's queue."""
        self.opened = 0
        """The last round whose boundary has opened (round 0 at start)."""
        self.live = 0
        """Participants still in the barrier."""
        self._parked = 0
        """Participants parked at boundary ``opened + 1``."""
        self._gate: asyncio.Event | None = None
        """Set when boundary ``opened + 1`` opens."""
        self._due: dict[int, int] = {}
        """Per unopened boundary ``k``: copies wired with ``delivered_at
        == k`` not yet landed or written off (dropped when ``k`` opens)."""
        self._timeout: asyncio.TimerHandle | None = None
        """Opens boundary ``opened + 1`` if completion has not by then."""
        self._timers: set[asyncio.TimerHandle] = set()
        """Outstanding sub-round delivery timers (latency, fault-plan
        delays).  Cancelled by :meth:`cancel_timers` on teardown so no
        callback outlives its run."""

    @property
    def observer(self) -> Observer | None:
        """The run's observer: the one its trace forwards events to."""
        return self.trace.observer

    # -- host surface (what ProcessContext / ByzantineApi call) ----------

    @property
    def corrupted_now(self) -> set[ProcessId]:
        return self.corrupted

    def process_now(self, pid: ProcessId) -> int:
        return self.rounds.get(pid, 0)

    def enqueue_send(
        self,
        sender: ProcessId,
        recipients: Sequence[ProcessId],
        payload: object,
        scope: str,
    ) -> None:
        self.post(
            sender, recipients, payload, tick=self.process_now(sender), scope=scope
        )

    def enqueue_byzantine_send(
        self, sender: ProcessId, recipients: Sequence[ProcessId], payload: object
    ) -> None:
        self.enqueue_send(sender, recipients, payload, "byzantine")

    # -- the send path ---------------------------------------------------

    def cancel_timers(self) -> None:
        """Teardown: cancel every outstanding delivery timer and the
        round timeout."""
        for handle in self._timers:
            handle.cancel()
        self._timers.clear()
        if self._timeout is not None:
            self._timeout.cancel()
            self._timeout = None

    def queue_for(self, pid: ProcessId) -> asyncio.Queue:
        if pid not in self.queues:
            self.queues[pid] = asyncio.Queue()
        return self.queues[pid]

    def post(
        self,
        sender: ProcessId,
        recipients: Sequence[ProcessId],
        payload: object,
        *,
        tick: int,
        scope: str,
    ) -> None:
        """The one send path of the wall-clock runtimes: bill the
        multicast once, then put one copy per recipient on the sender's
        transport, in recipient order.  The copies share one envelope;
        each travels with its receiver ``to``."""
        bill_multicast(
            self, sender, recipients, payload,
            tick=tick, scope=scope, sender_correct=sender not in self.corrupted,
        )
        node = self.nodes.get(sender)
        envelope = Envelope(sender, payload, tick, tick + 1)
        for to in recipients:
            if node is None:
                self.wire(to, envelope, self.land)
            else:
                node.transmit(to, envelope)

    def wire(
        self,
        to: ProcessId,
        envelope: Envelope,
        deliver: Callable[[ProcessId, Envelope], None],
    ) -> None:
        """Apply the fault plan to one billed send to ``to`` and hand
        each surviving copy to ``deliver(to, envelope)`` after its
        sub-round delay.  The ledger billed the send; faults act on the
        wire.  Each copy is owed to the boundary of its due round until
        it :meth:`land`\\ s or is written off (:meth:`write_off`)."""
        if self.injector is None:
            copies = [0.0]
        else:
            copies = self.injector.copies(envelope.sender, to, envelope.sent_at)
            if self.observer is not None:
                self.observer.on_copies(copies)
        due = envelope.delivered_at
        if due > self.opened and copies:
            self._due[due] = self._due.get(due, 0) + len(copies)
        for delay_fraction in copies:
            delay = self.latency + delay_fraction * self.tick_duration
            if delay <= 0:
                deliver(to, envelope)
            else:
                self._deliver_later(delay, deliver, to, envelope)

    def _deliver_later(
        self,
        delay: float,
        deliver: Callable[[ProcessId, Envelope], None],
        to: ProcessId,
        envelope: Envelope,
    ) -> None:
        """Deliver on a tracked timer: cancelled on teardown, so a
        delayed copy never fires into a closed transport, and forgotten
        once fired, so a long run does not pin every delayed envelope."""
        handle: asyncio.TimerHandle | None = None

        def fire() -> None:
            self._timers.discard(handle)
            deliver(to, envelope)

        handle = asyncio.get_running_loop().call_later(delay, fire)
        self._timers.add(handle)

    def land(self, to: ProcessId, envelope: Envelope) -> None:
        """One copy reaches receiver ``to``'s queue: the one landing
        point of the in-memory path and the TCP receive and loopback
        paths."""
        self.queue_for(to).put_nowait(envelope)
        self._settle(envelope)

    def write_off(self, envelope: Envelope) -> None:
        """A wired copy that can never land (its transport lost it):
        stop owing it to its boundary.  Call it at most once per copy,
        and never for a copy that may still land."""
        self._settle(envelope)

    def _settle(self, envelope: Envelope) -> None:
        due = envelope.delivered_at
        if due > self.opened:  # a straggler's boundary is long open
            self._due[due] = self._due.get(due, 0) - 1
            if due == self.opened + 1:
                self._try_open()

    # -- the completion clock -------------------------------------------

    def start_clock(self, participants: int) -> None:
        """Open round 0 now, with ``participants`` drivers in the
        barrier (every one of them must eventually park or
        :meth:`leave`)."""
        self.live = participants
        self._arm_timeout()

    def leave(self) -> None:
        """A driver returned (or was cancelled): stop waiting for it."""
        self.live -= 1
        if self.live <= 0 and self._timeout is not None:
            self._timeout.cancel()
            self._timeout = None
        self._try_open()

    async def wait_for_round(self, tick: int) -> None:
        """Park at the boundary into round ``tick`` until it opens (a
        participant lagging behind a boundary the timeout opened passes
        straight through).  Every call yields to the event loop, so a
        lone participant whose parking completes each boundary cannot
        starve the run's other tasks."""
        if tick > self.opened:
            if self._gate is None:
                self._gate = asyncio.Event()
            gate = self._gate
            self._parked += 1
            self._try_open()
            await gate.wait()
        await asyncio.sleep(0)

    def _try_open(self) -> None:
        if (
            self._parked
            and self._parked >= self.live
            and self._due.get(self.opened + 1, 0) <= 0
        ):
            self._open()

    def _open(self, timed_out: bool = False) -> None:
        """Open boundary ``opened + 1`` and arm the next one's timeout."""
        self.opened += 1
        self._due.pop(self.opened, None)
        self._parked = 0
        gate, self._gate = self._gate, None
        if gate is not None:
            gate.set()
        if timed_out and self.observer is not None:
            self.observer.count("sync.timeout_fired")
        if self.live > 0:
            self._arm_timeout()

    def _arm_timeout(self) -> None:
        if self._timeout is not None:
            self._timeout.cancel()
        self._timeout = asyncio.get_running_loop().call_later(
            self.tick_duration, self._open, True
        )

    def enter_round(
        self, pid: ProcessId, tick: int, pending: list[Envelope]
    ) -> list[Envelope]:
        """Move ``pid``'s clock to round ``tick`` and return the round's
        inbox: its queue drained into ``pending``, the envelopes due by
        ``tick`` taken out and canonically ordered.

        On a shared event loop a peer that wakes first at a round
        boundary can get its round-``tick`` sends enqueued *before* this
        process drains for round ``tick`` — wall-clock arrival order is
        not a round number, and which task wins that race varies run to
        run.  Partitioning on the ``delivered_at`` stamp makes round
        membership deterministic on the early side: an early arrival
        waits in ``pending`` for its due round.  A genuine straggler
        (arriving after its due round was collected) still joins the
        first round after it lands, which only the synchrony bound can
        prevent.  The order is the sender sort, or the fault plan's
        seeded within-``delta`` reordering when one is active;
        canonicalizing makes it independent of real arrival timing,
        which keeps same-seed runs trace-identical.
        """
        self.rounds[pid] = tick
        queue = self.queue_for(pid)
        while not queue.empty():
            pending.append(queue.get_nowait())
        due = [e for e in pending if e.delivered_at <= tick]
        pending[:] = [e for e in pending if e.delivered_at > tick]
        if self.fault_plan is not None:
            return self.fault_plan.order_inbox(pid, tick, due)
        return sorted(due, key=lambda e: e.sender)

    def result(
        self, outcomes: list[tuple[ProcessId, Any, int]], elapsed: float
    ) -> RunResult:
        """The run's :class:`RunResult` from the drivers' ``(pid,
        decision, halting round)`` triples."""
        halted_at = {pid: tick for pid, _, tick in outcomes}
        return RunResult(
            config=self.config,
            decisions={pid: decision for pid, decision, _ in outcomes},
            corrupted=frozenset(self.corrupted),
            ledger=self.ledger,
            trace=self.trace,
            ticks=max(halted_at.values(), default=-1) + 1,
            halted_at=halted_at,
            observer=self.observer,
            recovered=frozenset(self.recovered),
            elapsed=elapsed,
        )


async def _drive_process(
    network: AsyncNetwork,
    pid: ProcessId,
    factory: Callable[[ProcessContext], Generator[None, None, Any]],
) -> tuple[ProcessId, Any, int]:
    """Drive one protocol generator round by round through its
    scheduled crash windows; returns ``(pid, decision, halting round)``.
    The driver parks at every round boundary, but the generator is
    resumed only in the rounds it is due."""
    ctx = ProcessContext(network, pid)
    generator = factory(ctx)
    recovery = network.recovery
    plan = network.fault_plan
    # One pid's crash windows never overlap (FaultPlan validates that),
    # so the opening round identifies the window.
    windows = plan.crashes if plan is not None else ()
    crashes = {c.at_tick: c for c in windows if c.pid == pid}
    tick_index = 0
    deadline = 0
    pending: list[Envelope] = []
    while True:
        crash = crashes.get(tick_index)
        if crash is not None:
            generator, ctx, report = await _crash_and_recover(
                network, pid, factory, crash, pending, generator
            )
            tick_index = crash.restart_tick
            deadline = report.wake_at
            if generator is None:  # the protocol completed during replay
                return pid, report.decision, tick_index
        if recovery is not None:
            # Write-ahead: the inbox is durable before the protocol
            # acts on it.
            recovery.on_inbox(pid, tick_index, ctx.inbox)
        if due(ctx.inbox, tick_index, deadline):
            try:
                deadline = wake_tick(next(generator), tick_index)
            except StopIteration as stop:
                if recovery is not None:
                    recovery.flush(pid)
                return pid, stop.value, tick_index
        if recovery is not None:
            # One fsync batch per round, after the round's sends: the
            # inbox and the send highwater marks it produced become
            # durable together (the tick scheduler's end_tick cadence).
            recovery.flush(pid)
        tick_index += 1
        await network.wait_for_round(tick_index)
        ctx.now = tick_index
        ctx.inbox = network.enter_round(pid, tick_index, pending)


async def _crash_and_recover(
    network: AsyncNetwork,
    pid: ProcessId,
    factory: Callable[[ProcessContext], Generator[None, None, Any]],
    crash: Any,
    pending: list[Envelope],
    crashed: Generator[None, None, Any],
):
    """Take ``pid`` down for ``[at_tick, restart_tick)`` and rejoin it.

    Deliveries that land while the process is down are discarded at each
    round boundary except the last — a message sent during round
    ``restart_tick - 1`` is due at ``restart_tick``, when the process is
    back up (matching the tick scheduler's semantics).  Rejoin replays
    the WAL with sends suppressed, then pins the fresh context to the
    live clock.

    A transport node with machine state tears it down in ``crash()`` and
    re-establishes it in ``rejoin()`` (the TCP node closes its outgoing
    sessions and re-dials peers with a bumped epoch).

    Returns :func:`~repro.runtime.host.rejoin_from_wal`'s ``(generator,
    ctx, report)``; the generator is ``None`` when the protocol
    completed during replay.
    """
    queue = network.queue_for(pid)
    node = network.nodes.get(pid)
    note_crash(network, pid, crash.at_tick, crashed)
    if node is not None:
        await node.crash()
    pending.clear()  # held-over deliveries die with the down window
    for k in range(crash.at_tick, crash.restart_tick):
        await network.wait_for_round(k + 1)
        if k + 1 < crash.restart_tick:
            while not queue.empty():  # lost while down
                queue.get_nowait()
    if node is not None:
        await node.rejoin()
    generator, ctx, report = rejoin_from_wal(
        network, pid, factory,
        tick=crash.restart_tick, down_since=crash.at_tick,
    )
    network.recovered.add(pid)
    if generator is not None:
        ctx.now = crash.restart_tick
        ctx.inbox = network.enter_round(pid, crash.restart_tick, pending)
    return generator, ctx, report


async def _drive_behavior(
    network: AsyncNetwork, pid: ProcessId, behavior: Any
) -> None:
    """Step a Byzantine behavior once per round until cancelled (the
    run ends); it parks at every boundary like a correct process.  Its
    inbox goes through the same due-round drain as a correct process's;
    ``rushed`` stays empty — real transports offer no rushing
    visibility."""
    tick = 0
    pending: list[Envelope] = []
    while True:
        inbox = network.enter_round(pid, tick, pending)
        behavior.step(ByzantineApi(network, pid, inbox, rushed=[]))
        tick += 1
        await network.wait_for_round(tick)


def admit(
    network: AsyncNetwork,
    factories: dict[ProcessId, Callable],
    corrupted: set[ProcessId],
) -> None:
    """Fix the run's population before anything starts: every process
    is corrupted (crashed or Byzantine) or has a protocol."""
    network.corrupted = corrupted
    missing = [
        pid
        for pid in network.config.processes
        if pid not in factories and pid not in corrupted
    ]
    if missing:
        raise SchedulerError(f"processes {missing} have no protocol")
    if network.recovery is not None:
        network.recovery.describe(
            n=network.config.n, t=network.config.t, seed=network.seed
        )


async def run_cluster(
    network: AsyncNetwork,
    factories: dict[ProcessId, Callable],
    byzantine: dict[ProcessId, Any],
    timeout: float | None,
) -> list[tuple[ProcessId, Any, int]]:
    """Run every correct process (and behavior) on the network's
    completion clock until all processes decided; tasks and timers are
    reaped and the WALs closed on every path.  ``timeout`` bounds the
    run in seconds."""

    async def participate(drive, pid, *args):
        try:
            return await drive(network, pid, *args)
        finally:
            network.leave()

    correct = [
        pid for pid in network.config.processes if pid not in network.corrupted
    ]
    network.start_clock(len(correct) + len(byzantine))
    tasks = [
        asyncio.create_task(participate(_drive_process, pid, factories[pid]))
        for pid in correct
    ]
    tasks_and_behaviors = tasks + [
        asyncio.create_task(participate(_drive_behavior, pid, behavior))
        for pid, behavior in byzantine.items()
    ]
    try:
        return await asyncio.wait_for(asyncio.gather(*tasks), timeout)
    except asyncio.TimeoutError:
        raise TerminationViolation(
            f"run exceeded timeout={timeout}s before every live process "
            f"decided"
        ) from None
    finally:
        for task in tasks_and_behaviors:
            task.cancel()
        await asyncio.gather(*tasks_and_behaviors, return_exceptions=True)
        network.cancel_timers()
        if network.recovery is not None:
            network.recovery.close()


async def run_async(
    config: SystemConfig,
    factories: dict[ProcessId, Callable],
    *,
    seed: int = 0,
    tick_duration: float = 0.02,
    latency: float = 0.0,
    crashed: frozenset[ProcessId] = frozenset(),
    byzantine: dict[ProcessId, Any] | None = None,
    fault_plan: FaultPlan | None = None,
    observer: Observer | None = None,
    recovery: "RecoveryManager | None" = None,
) -> RunResult:
    """Run one protocol instance over asyncio.

    ``tick_duration`` is the round timeout δ in seconds: a round ends as
    soon as every participant has parked and every copy due in it has
    landed (module docstring), and only a round closed by timeout lasts
    δ; ``latency`` and fault-plan delays must stay below it.
    ``factories`` maps every correct pid to its protocol factory;
    ``crashed`` processes never run (silent failures); ``byzantine``
    maps corrupted pids to behavior objects with the same ``step(api)``
    interface the deterministic simulator uses (minus rushing
    visibility — real transports don't offer it); ``fault_plan``
    deterministically drops / duplicates / delays / reorders messages
    (see :mod:`repro.faults`); ``recovery`` gives every correct process
    a write-ahead log and is required when the plan schedules
    crash/restart faults (the crashed task discards its generator, goes
    silent for the down window, replays its WAL, and rejoins).
    """
    byzantine = byzantine or {}
    loop = asyncio.get_running_loop()
    started = loop.time()
    network = AsyncNetwork(
        config,
        seed=seed,
        tick_duration=tick_duration,
        latency=latency,
        fault_plan=fault_plan,
        observer=observer,
        recovery=recovery,
    )
    admit(network, factories, set(crashed) | set(byzantine))
    outcomes = await run_cluster(network, factories, byzantine, None)
    return network.result(outcomes, loop.time() - started)
