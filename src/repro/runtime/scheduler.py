"""The tick-based scheduler.

Execution model per tick ``T`` (the historical lockstep ``delta=1``
model, :data:`~repro.runtime.synchrony.LOCKSTEP`):

1. scheduled mid-run corruptions for ``T`` are applied (the adaptive
   adversary of Section 2);
2. envelopes sent at ``T - 1`` are delivered;
3. correct processes are resumed (in pid order) with their deliveries;
   sends they make are stamped ``sent_at = T`` and due at ``T + 1``;
4. Byzantine behaviors are stepped, seeing both their deliveries and the
   honest messages addressed to them that were sent *this* tick
   (rushing);
5. the tick counter advances to the next tick at which anything happens.

**Sparse time.**  A correct process is resumed only when it is *due*
(:func:`~repro.runtime.host.due`: a delivery, or the wake-up deadline it
yielded), and under lockstep ``self.tick`` jumps to the next tick
holding a delivery, a wake-up, a scheduled corruption or a
crash/restart.  Ticks are skipped, never renumbered: every event,
word record and WAL byte carries the tick it always had.  Ticks stay
dense under a ``tick_hook`` (the model checker fingerprints each one), a
non-passive Byzantine behavior (stepped each one) or a paced model —
there only resumptions are skipped (``docs/runtime.md``, "Waiting").

Under any other :class:`~repro.runtime.synchrony.SynchronyModel` the
scheduler runs **paced**: delivery ticks come from the model (``delta``
bounds, or GST partial synchrony with adversarial pre-GST delays), and
correct processes are resumed not every tick but when the shared
:class:`_RoundClock` ends the round — by **certificate** (a quorum of
distinct senders reached some correct process) or by **timeout**
(exponential back-off on late traffic), whichever first; each process
resumes at the advance tick plus its bounded clock drift.  ``ctx.now``
then counts *rounds*, not ticks, so protocol timers written in round
units ("wait until ``now + 2``") keep their meaning.  Byzantine
behaviors still step every tick — the adversary is never slowed by
honest clocks.

The run ends when every correct process's generator has returned; the
generators' return values are the decisions.
"""

from __future__ import annotations

from collections import defaultdict
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Callable, Collection, Generator, Sequence

from repro.config import ProcessId, SystemConfig
from repro.crypto.certificates import CryptoSuite
from repro.errors import SchedulerError, TerminationViolation
from repro.faults import FaultInjector, FaultPlan
from repro.metrics.words import WordLedger
from repro.obs.observer import Observer
from repro.runtime.byzantine import ByzantineApi, ByzantineBehavior
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
from repro.runtime.synchrony import SynchronyModel
from repro.runtime.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - avoids a cycle via repro.mc
    from repro.mc.choices import ChoiceSource
    from repro.recovery.manager import RecoveryManager

ProtocolFactory = Callable[[ProcessContext], Generator["int | None", None, Any]]
"""A correct process: ``factory(ctx)`` returns the protocol generator,
which yields the ``ctx.now`` by which it wants to run again (a bare
``yield``: the next tick) and returns its decision."""

TickHook = Callable[["Simulation", dict[ProcessId, list[Envelope]]], None]
"""Model-checker instrumentation: called once per tick, after inboxes
are assembled and before any process is resumed, with the simulation
and this tick's inbox map.  Raising aborts the run (the explorer's
state-fingerprint pruning does exactly that).  A hooked run visits every
tick."""


_ONE_COPY = (0.0,)
"""The wire copies of a send when no fault injector acts: one, undelayed."""

_Entry = tuple[float, ProcessId, tuple[ProcessId, ...], object, int]
"""A delivery-wheel entry: ``(sub-delta delay, sender, recipients,
payload, sent_at)`` — a whole multicast, or one wire copy."""


class _RoundClock:
    """The shared round clock of a paced run (one per simulation).

    Correct processes advance rounds *together*: a round ends when any
    correct process assembles a quorum certificate (``n - t`` distinct
    senders — the network-layer idealization of the certificate gossip
    real view synchronizers broadcast, see docs/partial_synchrony.md) or
    when the shared per-round timeout fires.  The timeout escalates
    (``backoff``, capped) on rounds that saw traffic but no certificate
    — the network is slower than the current estimate — and resets to
    base on certificate progress; silent rounds (no traffic at all) are
    protocol sleep and keep the estimate.  Sharing the clock is what
    makes honest clocks bounded-drift in the DLS sense: traffic-local
    timeout state would amount to unbounded clock drift and desyncs the
    paper's round-indexed phase schedules even *after* GST.
    """

    __slots__ = ("round", "started_at", "timeout", "retries", "launched")

    def __init__(self, timeout: int) -> None:
        self.round = 0
        self.started_at = 0
        self.timeout = timeout
        self.retries = 0
        self.launched = False

    def fingerprint(self) -> tuple:
        return (
            self.round,
            self.started_at,
            self.timeout,
            self.retries,
            self.launched,
        )


class _ProcessPacer:
    """Per-process paced-run state.

    ``buffer`` accumulates deliveries between resumes, each tick's
    already in delivery order (:meth:`Simulation._deliver`), so it is
    in ``(tick, delay, sender)`` order; on resume it becomes the round's
    inbox.  ``resume_at`` is the tick this process actually
    resumes the clock's current round (the shared advance tick plus its
    bounded clock drift); ``None`` once resumed.  ``round`` is the last
    round the process resumed — what :attr:`ProcessContext.now`
    reports, so protocols keep counting in round units.
    """

    __slots__ = ("round", "resume_at", "buffer")

    def __init__(self) -> None:
        self.round = 0
        self.resume_at: int | None = 0
        self.buffer: list[Envelope] = []

    def fingerprint(self, key: Callable[[Envelope], object]) -> tuple:
        # ``None`` hashes by address (Python < 3.12): a fixed int keeps
        # digests equal across processes under one ``PYTHONHASHSEED``.
        return (
            self.round,
            -1 if self.resume_at is None else self.resume_at,
            tuple((e.delivered_at, key(e)) for e in self.buffer),
        )


class Simulation:
    """One configured run of a protocol over the synchronous network."""

    def __init__(
        self,
        config: SystemConfig,
        *,
        seed: int = 0,
        max_ticks: int = 100_000,
        record_envelopes: bool = False,
        fault_plan: FaultPlan | None = None,
        choices: "ChoiceSource | None" = None,
        stop_on_horizon: bool = False,
        observer: Observer | None = None,
        recovery: "RecoveryManager | None" = None,
        synchrony: SynchronyModel | None = None,
    ) -> None:
        """Each tick's inbox is delivered sorted by sender id unless a
        fault plan or a choice source reorders it.

        ``fault_plan``: a seeded :class:`~repro.faults.plan.FaultPlan`
        applied to every send (drops, duplicates, sub-``delta`` delays,
        inbox reordering — the synchronous model allows any
        within-``delta`` order, so protocols must not depend on it);
        sub-``delta`` delays manifest as inbox position, the only
        observable a bounded delay has in the tick world.

        ``choices``: a :class:`~repro.mc.choices.ChoiceSource` drawing
        every open decision — per-message fault verdicts and correct
        processes' inbox orders — from an explicit decision stream
        (model checking).  Mutually exclusive with ``fault_plan``: a
        checked run's nondeterminism must have exactly one owner.

        ``stop_on_horizon``: instead of raising
        :class:`~repro.errors.TerminationViolation` when the run
        exceeds ``max_ticks``, stop and return a
        :class:`~repro.runtime.result.RunResult` with
        ``truncated=True`` — bounded model checking verifies safety on
        such runs and claims termination only for complete ones.

        ``observer``: an :class:`~repro.obs.observer.Observer` fed with
        the visited ticks, every trace event (the trace is built as
        ``Trace(observer=observer)``), fault verdicts and the paced clock's
        ``sync.*`` telemetry.  Observers record; they never steer — the
        run's outcome, trace, and model-checking fingerprints are
        identical with or without one.  ``None`` is the uninstrumented
        fast path.

        ``recovery``: a :class:`~repro.recovery.manager.RecoveryManager`
        giving every correct process a write-ahead log (per-tick
        inboxes written before consumption, send highwater marks,
        restart markers).  Required when ``fault_plan`` schedules
        crash/restart faults: a crashed process's generator is
        discarded, deliveries inside its down window are lost, and at
        the restart tick the process is rebuilt by replaying its WAL
        (:func:`~repro.recovery.replay.replay_generator`) and rejoins
        tick-aligned.

        ``synchrony``: the :class:`~repro.runtime.synchrony.SynchronyModel`
        governing delivery ticks and round advancement.  ``None`` (and
        ``Lockstep(delta=1)``) is the historical lockstep scheduler,
        byte-identical; any other model runs the paced execution model
        (module docstring).  Mutually exclusive with ``recovery``: WAL
        replay is tick-aligned and paced rounds are not."""
        check_seed(seed)
        if max_ticks < 1:
            raise SchedulerError(f"max_ticks must be >= 1, got {max_ticks}")
        self.config = config
        self.seed = seed
        self.suite = CryptoSuite(config, seed=seed)
        self.max_ticks = max_ticks
        self.ledger = WordLedger()
        self.trace = Trace(observer=observer)
        self.record_envelopes = record_envelopes
        self.envelopes: list[tuple[ProcessId, Envelope]] = []
        """Every sent copy as a ``(receiver, envelope)`` pair, in send
        order, when ``record_envelopes`` is on — the raw material for
        message-flow analysis (:mod:`repro.analysis.flows`) and
        equivocation forensics.  The copies of one fan-out multicast
        share their envelope."""
        if choices is not None and fault_plan is not None:
            raise SchedulerError(
                "choices is mutually exclusive with fault_plan: one owner "
                "per run's nondeterminism"
            )
        if choices is not None and recovery is not None:
            raise SchedulerError(
                "recovery is not supported under a ChoiceSource: model-"
                "checked runs must stay free of filesystem effects"
            )
        self.fault_plan = fault_plan
        self.choices = choices
        self.recovery = recovery
        if fault_plan is not None:
            self._injector = FaultInjector(fault_plan)
        elif choices is not None and choices.space.opens_fault_points:
            self._injector = FaultInjector(None, choices=choices)
        else:
            # Nothing decides a copy's fate on the wire: a fault-free
            # choice space draws inbox orders only, at delivery.
            self._injector = None
        self.stop_on_horizon = stop_on_horizon
        self.synchrony = resolve_synchrony(synchrony, fault_plan, recovery)
        self._paced = not self.synchrony.trivial
        self._clock: _RoundClock | None = (
            _RoundClock(self.synchrony.timeout_base()) if self._paced else None
        )
        self._pacers: dict[ProcessId, _ProcessPacer] = {}
        self._sent_now: dict[ProcessId, list[Envelope]] = {}
        """Paced-mode rushing view: this tick's on-the-wire sends by
        receiver (the wheel slot ``tick + 1`` no longer holds them)."""
        self._sync_seq: dict[tuple[ProcessId, ProcessId], int] = {}
        """Per-tick, per-edge send counter for the synchrony model's
        seeded/choice-point delivery draws (cleared every tick, so the
        draw coordinates ``(sender, receiver, tick, seq)`` stay pure)."""
        self.tick_hook: TickHook | None = None
        self.tick = 0
        self._factories: dict[ProcessId, ProtocolFactory] = {}
        self._behaviors: dict[ProcessId, ByzantineBehavior] = {}
        self._stepped: list[ProcessId] = []
        """Corrupted pids whose behavior is not ``passive``, in pid order:
        the ones stepped, and a reason ticks stay dense."""
        self._scheduled_corruptions: dict[int, list[tuple[ProcessId, ByzantineBehavior]]] = {}
        self._fanout = self._injector is None and not self._paced
        """Whether every copy of a multicast shares its fate: no fault
        verdict, no choice-source draw and no paced delivery draw can
        tell one copy from its siblings (lockstep ``delta=1``, no
        ``FaultPlan``, no choice source that can open a per-copy fault
        point).  A checked run's inbox orders are drawn at delivery,
        per reader, so they leave the fan-out path open."""
        self._due: dict[int, list[_Entry]] = {}
        """Delivery wheel: tick -> its :data:`_Entry` list, in send order.

        On the fan-out path (``_fanout``) an entry is a whole multicast,
        filed in slot ``tick + 1``.  Otherwise a copy's fate can differ
        from its siblings' — a fault verdict (from a ``FaultPlan`` or a
        choice source that can open a per-copy fault point) or a paced
        delivery tick — so each wire copy is an entry of its own,
        ``recipients=(to,)``, in the slot of its delivery tick.  The
        delay (a fraction of ``delta``) only influences inbox position,
        never the delivery tick.  Envelopes are built only on delivery,
        and only for the inboxes someone reads (:meth:`_deliver`).

        Both granularities produce byte-identical inboxes: the seeded
        equivalence properties in ``test_scheduler_properties.py`` (the
        historical regroup-and-sort per inbox) and
        ``test_multicast_fanout.py`` (fan-out against per-copy, on every
        table row) pin this."""
        self._deadline: dict[ProcessId, int] = {}
        """Live generator -> the wake-up deadline it last yielded."""
        self._wake: dict[int, list[ProcessId]] = {}
        """Wake wheel (lockstep): tick -> pids that yielded it as their
        deadline.  Entries made stale by an early resume or a crash are
        filtered by the due rule."""
        self._started = False
        self.corrupted_now: set[ProcessId] = set()
        self._decisions: dict[ProcessId, Any] = {}
        self._halted_at: dict[ProcessId, int] = {}

    @property
    def observer(self) -> Observer | None:
        """The run's observer: the one its trace forwards events to."""
        return self.trace.observer

    @observer.setter
    def observer(self, observer: Observer | None) -> None:
        self.trace.observer = observer

    # ------------------------------------------------------------------
    # Population
    # ------------------------------------------------------------------

    def add_process(self, pid: ProcessId, factory: ProtocolFactory) -> None:
        """Register a correct process running ``factory(ctx)``."""
        self._check_unregistered(pid)
        self._factories[pid] = factory

    def add_byzantine(self, pid: ProcessId, behavior: ByzantineBehavior) -> None:
        """Register a process corrupted from the start."""
        self._check_unregistered(pid)
        self._corrupt(pid, behavior)

    def schedule_corruption(
        self, tick: int, pid: ProcessId, behavior: ByzantineBehavior
    ) -> None:
        """Adaptive adversary: corrupt ``pid`` at the start of ``tick``.

        ``pid`` must have been registered as a correct process; from
        ``tick`` on, its generator is discarded and ``behavior`` acts.
        """
        if tick < 0:
            raise SchedulerError(f"corruption tick must be >= 0, got {tick}")
        self._scheduled_corruptions.setdefault(tick, []).append((pid, behavior))

    def _corrupt(self, pid: ProcessId, behavior: ByzantineBehavior) -> None:
        self._behaviors[pid] = behavior
        self.corrupted_now.add(pid)
        if not getattr(behavior, "passive", False):
            self._stepped = sorted([*self._stepped, pid])

    def _check_unregistered(self, pid: ProcessId) -> None:
        if pid in self._factories or pid in self._behaviors:
            raise SchedulerError(f"process {pid} registered twice")
        if pid not in self.config.processes:
            raise SchedulerError(
                f"process {pid} outside configured range 0..{self.config.n - 1}"
            )

    # ------------------------------------------------------------------
    # Sending (called by contexts / byzantine api)
    # ------------------------------------------------------------------

    def enqueue_send(
        self,
        sender: ProcessId,
        recipients: Sequence[ProcessId],
        payload: object,
        scope: str,
    ) -> None:
        self._enqueue(sender, recipients, payload, scope=scope, sender_correct=True)

    def enqueue_byzantine_send(
        self, sender: ProcessId, recipients: Sequence[ProcessId], payload: object
    ) -> None:
        self._enqueue(
            sender, recipients, payload, scope="byzantine", sender_correct=False
        )

    def _enqueue(
        self,
        sender: ProcessId,
        recipients: Sequence[ProcessId],
        payload: object,
        *,
        scope: str,
        sender_correct: bool,
    ) -> None:
        """One multicast: bill it once, then file its wheel entries.

        On the fan-out path the multicast is one entry of the ``tick +
        1`` slot; otherwise each recipient's wire copies are filed one
        by one, in recipient order.  Either way a recorded run lists one
        envelope per recipient, in send order."""
        tick = self.tick
        bill_multicast(
            self, sender, recipients, payload,
            tick=tick, scope=scope, sender_correct=sender_correct,
        )
        due = self._due
        if self._fanout:
            recipients = tuple(recipients)
            if not recipients:  # no copy, no slot: the tick stays skippable
                return
            entry = (0.0, sender, recipients, payload, tick)
            due.setdefault(tick + 1, []).append(entry)
            if self.record_envelopes:
                envelope = Envelope(sender, payload, tick, tick + 1)
                self.envelopes += [(to, envelope) for to in recipients]
            return
        obs = self.observer
        injector = self._injector
        paced = self._paced
        envelopes = self.envelopes if self.record_envelopes else None
        for to in recipients:
            if not paced:
                # Lockstep delta=1 delivers next tick.
                delivered_at = tick + 1
            else:
                edge = (sender, to)
                seq = self._sync_seq.get(edge, 0)
                self._sync_seq[edge] = seq + 1
                delivered_at = self.synchrony.delivery_tick(
                    sender, to, tick, seq, chooser=self.choices
                )
                if delivered_at <= tick:
                    raise SchedulerError(
                        f"synchrony model {self.synchrony.describe()} scheduled "
                        f"delivery at {delivered_at} <= send tick {tick}"
                    )
            if injector is None:
                copies: Sequence[float] = _ONE_COPY
            else:  # the ledger bills the *send*; faults act on the wire
                copies = injector.copies(sender, to, tick, payload=payload)
                if obs is not None:
                    obs.on_copies(copies)
            if copies:
                due.setdefault(delivered_at, []).extend(
                    [(delay, sender, (to,), payload, tick) for delay in copies]
                )
                if paced and sender != to:
                    self._sent_now.setdefault(to, []).append(
                        Envelope(sender, payload, tick, delivered_at)
                    )
            if envelopes is not None:
                envelopes.append((to, Envelope(sender, payload, tick, delivered_at)))

    def _deliver(
        self, tick: int, readers: Collection[ProcessId]
    ) -> dict[ProcessId, list[Envelope]]:
        """Pop slot ``tick`` and build the inboxes of ``readers``.

        The slot is stably sorted once by ``(delay, sender)``, then each
        entry builds one envelope and appends that same object to the
        inbox of every recipient that reads it.  Restricted to one
        receiver, that one sort is the sort of its own copies, so every
        inbox is ordered by sub-``delta`` delay, then sender, then send
        order.  An entry nobody reads (its recipients down or decided
        processes, or passive Byzantine ones) builds no envelope.  This
        is the override point of the scheduler equivalence tests."""
        inboxes: defaultdict[ProcessId, list[Envelope]] = defaultdict(list)
        entries = self._due.pop(tick, None)
        if not entries:
            return inboxes
        if self.choices is not None:
            # A checked run meets its inbox-order choice points in
            # first-send order, so the inboxes are keyed before the sort.
            inboxes.update(
                (to, [])
                for _, _, recipients, _, _ in entries
                for to in recipients
                if to in readers
            )
        entries.sort(key=itemgetter(0, 1))
        for _, sender, recipients, payload, sent_at in entries:
            envelope = None
            for to in recipients:
                if to in readers:
                    if envelope is None:
                        envelope = Envelope(sender, payload, sent_at, tick)
                    inboxes[to].append(envelope)
        return inboxes

    def _rushed_to(self, pid: ProcessId) -> list[Envelope]:
        """Messages sent *this* tick to ``pid`` (Byzantine rushing), one
        per wire copy, in send order."""
        if self._paced:
            # Sends scatter across future wheel slots under a paced
            # model; the per-tick side record is the rushing view.
            return list(self._sent_now.get(pid, ()))
        return [
            Envelope(sender, payload, sent_at, sent_at + 1)
            for _, sender, recipients, payload, sent_at
            in self._due.get(self.tick + 1, ())
            for _ in range(recipients.count(pid))
        ]

    # ------------------------------------------------------------------
    # Paced rounds (non-trivial synchrony models)
    # ------------------------------------------------------------------

    def process_now(self, pid: ProcessId) -> int:
        """What ``ctx.now`` reports for ``pid``: the global tick under
        lockstep ``delta=1``, the process's *round index* under a paced
        model — so protocol timers written in round units ("wait until
        ``now + 2``") keep their meaning when rounds span many ticks."""
        if not self._paced:
            return self.tick
        pacer = self._pacers.get(pid)
        return pacer.round if pacer is not None else self.tick

    def pacer_fingerprint(self, key: Callable[[Envelope], object]) -> tuple:
        """Paced-round state for model-checking state digests, buffered
        envelopes keyed by ``key``: ``()`` under the trivial model (where
        the digest's existing components already capture everything)."""
        if not self._paced:
            return ()
        assert self._clock is not None
        return (
            self._clock.fingerprint(),
            tuple(sorted(
                (pid, pacer.fingerprint(key))
                for pid, pacer in self._pacers.items()
            )),
        )

    def _clock_advance_reason(self) -> str | None:
        """Why the shared round ends this tick, or ``None`` to keep
        waiting: ``"start"`` (tick 0), ``"certificate"`` (some live
        correct process holds a quorum of distinct senders in its
        current-round buffer), ``"timeout"`` (the shared per-round
        timeout expired).  The clock never advances while a drifted
        process still owes a resume of the current round — a
        certificate presupposes current-round participation."""
        clock = self._clock
        assert clock is not None
        if not clock.launched:
            return "start"
        if any(p.resume_at is not None for p in self._pacers.values()):
            return None
        if self.synchrony.early_advance:
            quorum = self.config.n - self.config.t
            for pacer in self._pacers.values():
                senders = {envelope.sender for envelope in pacer.buffer}
                if len(senders) >= quorum:
                    return "certificate"
        if self.tick >= clock.started_at + clock.timeout:
            return "timeout"
        return None

    def _clock_advance(self, reason: str) -> None:
        """End the shared round for ``reason``: bump the clock, adjust
        the timeout estimate, and schedule every live correct process's
        resume at ``tick + drift`` (bounded clock skew)."""
        clock = self._clock
        assert clock is not None
        obs = self.observer
        if reason == "start":
            clock.launched = True
        else:
            prev_started_at = clock.started_at
            clock.round += 1
            if reason == "certificate":
                # PBFT-style: progress proves the timeout estimate is
                # adequate again, so the back-off resets.
                clock.timeout = self.synchrony.timeout_base()
                if obs is not None:
                    obs.count("sync.cert_advance")
            else:
                # Escalate only on evidence the network outpaces the
                # round length: a buffered envelope sent before the
                # *previous* round began took more than a full round to
                # arrive.  (Sent-last-round arrivals are the normal
                # cross-boundary case; silent rounds are protocol
                # sleep.)  Lockstep's next_timeout is the identity, so
                # delta>1 lockstep pacing never drifts from delta.
                late = any(
                    envelope.sent_at < prev_started_at
                    for pacer in self._pacers.values()
                    for envelope in pacer.buffer
                )
                if late:
                    clock.retries += 1
                    clock.timeout = self.synchrony.next_timeout(clock.timeout)
                    if obs is not None:
                        obs.count("sync.round_retries")
                if obs is not None:
                    obs.count("sync.timeout_fired")
            if obs is not None:
                obs.event(
                    "round_advanced", tick=self.tick, round=clock.round,
                    reason=reason, timeout=clock.timeout,
                )
        clock.started_at = self.tick
        for pid, pacer in self._pacers.items():
            pacer.resume_at = self.tick + self.synchrony.drift_for(
                pid, clock.round
            )

    def _paced_inbox(self, pid: ProcessId) -> list[Envelope]:
        """Drain ``pid``'s buffer (already in delivery order) into the
        new round's inbox, then fault-plan / choice-source reorder it
        exactly like a lockstep inbox."""
        pacer = self._pacers[pid]
        assert self._clock is not None
        pacer.round = self._clock.round
        pacer.resume_at = None
        inbox = pacer.buffer
        pacer.buffer = []
        if self.choices is not None:
            return self.choices.order_inbox(pid, self.tick, inbox)
        if self.fault_plan is not None:
            return self.fault_plan.maybe_shuffle(pid, self.tick, inbox)
        return inbox

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self) -> RunResult:
        """Execute the run to completion and return its result."""
        if self._started:
            raise SchedulerError("a Simulation can only be run once")
        self._started = True
        self._validate_population()

        contexts: dict[ProcessId, ProcessContext] = {}
        generators: dict[ProcessId, Generator[None, None, Any]] = {}
        for pid, factory in self._factories.items():
            ctx = ProcessContext(self, pid)
            contexts[pid] = ctx
            generators[pid] = factory(ctx)
            self._wait(pid, 0)
            if self._paced:
                self._pacers[pid] = _ProcessPacer()

        decisions: dict[ProcessId, Any] = {}
        halted_at: dict[ProcessId, int] = {}
        # Shared with tick hooks: fingerprinting needs the decided-so-far
        # view, which otherwise lives only in these locals.
        self._decisions = decisions
        self._halted_at = halted_at
        ever_corrupted: set[ProcessId] = set(self.corrupted_now)
        ever_recovered: set[ProcessId] = set()
        down: dict[ProcessId, int] = {}
        """Crashed-but-honest pids -> tick their down window opened."""
        truncated = False

        if self.recovery is not None:
            self.recovery.describe(
                n=self.config.n, t=self.config.t, seed=self.seed,
                max_ticks=self.max_ticks,
            )

        observer = self.observer
        while generators or down:
            if observer is not None:
                observer.on_tick(self.tick)
            if self.tick > self.max_ticks:
                if self.stop_on_horizon:
                    truncated = True
                    break
                raise TerminationViolation(
                    f"run exceeded max_ticks={self.max_ticks}; "
                    f"{sorted(generators)} never decided"
                )

            if self._paced:
                self._sent_now.clear()
                self._sync_seq.clear()

            for pid, behavior in self._scheduled_corruptions.pop(self.tick, []):
                if pid in generators:
                    generators.pop(pid).close()
                    contexts.pop(pid)
                    self._pacers.pop(pid, None)
                if pid not in self._behaviors:
                    self._corrupt(pid, behavior)
                    ever_corrupted.add(pid)
                    self.trace.emit(
                        tick=self.tick,
                        pid=pid,
                        scope="adversary",
                        name="corrupted",
                    )

            # Restarts fire before crashes so a window closing exactly
            # where the next one opens rejoins (then re-crashes) cleanly.
            if self.fault_plan is not None and self.fault_plan.crashes:
                for crash in self.fault_plan.restart_at(self.tick):
                    if crash.pid not in down:
                        continue
                    gen, ctx, report = rejoin_from_wal(
                        self, crash.pid, self._factories[crash.pid],
                        tick=self.tick, down_since=down.pop(crash.pid),
                    )
                    ever_recovered.add(crash.pid)
                    if report.decided:
                        decisions[crash.pid] = report.decision
                        halted_at[crash.pid] = self.tick
                    else:
                        generators[crash.pid] = gen
                        contexts[crash.pid] = ctx
                        self._wait(crash.pid, report.wake_at)
                for crash in self.fault_plan.crash_at(self.tick):
                    if crash.pid not in generators:
                        continue  # already decided, corrupted, or down
                    contexts.pop(crash.pid)
                    down[crash.pid] = self.tick
                    note_crash(
                        self, crash.pid, self.tick, generators.pop(crash.pid)
                    )

            resuming: list[ProcessId] | None = None
            if self._paced:
                # Deliveries to correct processes land in their buffers;
                # the shared round clock ends rounds by certificate or
                # timeout, not at the tick boundary, and each process
                # resumes at the advance tick plus its bounded clock
                # drift.  Byzantine inboxes stay per-tick: the
                # adversary's view is never paced by honest clocks.
                inboxes = self._deliver(self.tick, {*self._pacers, *self._behaviors})
                for pid, pacer in self._pacers.items():
                    pacer.buffer += inboxes.pop(pid, ())
                if generators:
                    reason = self._clock_advance_reason()
                    if reason is not None:
                        self._clock_advance(reason)
                resuming = []
                for pid in sorted(generators):
                    pacer = self._pacers[pid]
                    if pacer.resume_at is not None and self.tick >= pacer.resume_at:
                        inboxes[pid] = self._paced_inbox(pid)
                        resuming.append(pid)
            else:
                if self.tick_hook is not None or self.choices is not None:
                    # A hook sees the whole map, and every correct
                    # inbox order is a choice point that replays must
                    # meet: every process that is up reads.
                    readers = set(self.config.processes).difference(down)
                else:
                    readers = {*generators, *self._stepped}
                inboxes = self._deliver(self.tick, readers)
                if self.choices is not None:
                    # The decision stream picks among the offered
                    # orderings.  Byzantine inboxes stay canonical: the
                    # adversary sees everything anyway, so its perceived
                    # order is not part of the correctness space.
                    for pid, inbox in inboxes.items():
                        if pid not in self._behaviors:
                            inboxes[pid] = self.choices.order_inbox(
                                pid, self.tick, inbox
                            )
                elif self.fault_plan is not None:
                    # The plan's seeded reorder may scramble a round.
                    for pid, inbox in inboxes.items():
                        inboxes[pid] = self.fault_plan.maybe_shuffle(
                            pid, self.tick, inbox
                        )

            if self.tick_hook is not None:
                self.tick_hook(self, inboxes)

            if resuming is None:
                # Lockstep: only a delivery or the wake wheel makes a pid due.
                resuming = sorted({*inboxes, *self._wake.pop(self.tick, ())})
            for pid in resuming:
                if pid not in generators:
                    continue  # decided, corrupted or down: mail, no process
                inbox = inboxes.get(pid, [])
                now = self._pacers[pid].round if self._paced else self.tick
                if not due(inbox, now, self._deadline[pid]):
                    continue
                ctx = contexts[pid]
                ctx.now, ctx.inbox = now, inbox
                if self.recovery is not None:
                    # Write-ahead: the inbox is durable before the
                    # protocol acts on it.
                    self.recovery.on_inbox(pid, self.tick, inbox)
                try:
                    yielded = next(generators[pid])
                except StopIteration as stop:
                    decisions[pid] = stop.value
                    halted_at[pid] = self.tick
                    del generators[pid]
                    del contexts[pid]
                    self._pacers.pop(pid, None)
                else:
                    deadline = wake_tick(yielded, now)
                    # A deadline already past still means the next tick.
                    self._wait(pid, deadline if deadline > now else now + 1)

            if generators:  # adversary acts only while the run is live
                for pid in self._stepped:
                    api = ByzantineApi(
                        simulation=self,
                        pid=pid,
                        inbox=inboxes.get(pid, []),
                        rushed=[
                            e
                            for e in self._rushed_to(pid)
                            if e.sender not in self.corrupted_now
                        ],
                    )
                    self._behaviors[pid].step(api)

            if self.recovery is not None:
                self.recovery.end_tick()
            live = generators or down
            self.tick = self._next_tick() if live else self.tick + 1

        if self.recovery is not None:
            self.recovery.close()
        return RunResult(
            config=self.config,
            decisions=decisions,
            corrupted=frozenset(ever_corrupted),
            ledger=self.ledger,
            trace=self.trace,
            ticks=self.tick,
            halted_at=halted_at,
            envelopes=tuple(self.envelopes),
            truncated=truncated,
            observer=self.observer,
            recovered=frozenset(ever_recovered),
        )

    def _wait(self, pid: ProcessId, deadline: int) -> None:
        """``pid``'s generator asked to run again by ``deadline``."""
        self._deadline[pid] = deadline
        if not self._paced:  # a paced run visits every round anyway
            self._wake.setdefault(max(deadline, self.tick), []).append(pid)

    def _next_tick(self) -> int:
        """The next tick at which anything can happen (module docstring);
        never past ``max_ticks + 1``, where the horizon check fires."""
        soon = self.tick + 1
        dense = self._paced or self.tick_hook is not None or self._stepped
        if dense or soon in self._due:
            return soon
        events = [self.max_ticks + 1, *self._due, *self._wake]
        events += self._scheduled_corruptions
        if self.fault_plan is not None:
            for crash in self.fault_plan.crashes:
                events += (crash.at_tick, crash.restart_tick)
        return min(tick for tick in events if tick > self.tick)

    def _validate_population(self) -> None:
        scheduled = {
            pid
            for entries in self._scheduled_corruptions.values()
            for pid, _ in entries
        }
        for pid in self.config.processes:
            if pid not in self._factories and pid not in self._behaviors:
                raise SchedulerError(
                    f"process {pid} has neither a protocol nor a behavior"
                )
        for pid in scheduled:
            if pid in self._behaviors:
                raise SchedulerError(
                    f"process {pid} is already Byzantine; cannot re-corrupt"
                )
        if self.fault_plan is not None:
            for crash in self.fault_plan.crashes:
                if crash.pid not in self._factories:
                    raise SchedulerError(
                        f"crash fault targets process {crash.pid}, which is "
                        f"not a correct process (only correct processes "
                        f"crash and recover; Byzantine ones are adversarial)"
                    )
