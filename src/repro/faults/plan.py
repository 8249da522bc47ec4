"""Deterministic fault plans.

A :class:`FaultPlan` is a *seeded description* of everything the network
is allowed to do to messages within the paper's synchronous model — plus
the omission- and connection-level faults that real deployments add on
top.  The same plan object drives all three runtimes:

* the tick-accurate simulator (:mod:`repro.runtime.scheduler`),
* the asyncio in-memory runner (:mod:`repro.asyncnet.runner`),
* the localhost TCP transport (:mod:`repro.asyncnet.tcp`).

Determinism is the whole point: every per-message decision is a pure
function of ``(plan.seed, sender, receiver, tick, seq)``, where ``seq``
numbers the sends on one edge within one tick.  Because protocol sends
happen in a deterministic order inside a round, two runs with the same
seed suffer *identical* faults — even over real sockets, where wall-clock
timing is not reproducible.

Fault taxonomy and model fidelity
---------------------------------

``drop``
    Send-omission faults.  When ``lossy`` is non-empty, only messages
    *sent by* a lossy process are eligible — omission-faulty processes
    count toward the run's failure count ``f`` (they are
    indistinguishable from intermittently silent Byzantine processes to
    everyone else), so safety is preserved whenever
    ``|lossy ∪ corrupted| <= t``.  An empty ``lossy`` set applies the
    drop rate to every edge, which deliberately *exceeds* the paper's
    model — useful for destructive testing, not for property checks.
``duplicate``
    The network delivers extra copies.  Harmless to the protocols by
    construction (certificate collectors key partials by signer;
    per-leader messages take the first copy) — the plan proves it.
``delay``
    Sub-``delta`` delivery delay, as a fraction of the synchrony bound.
    Over real transports this is real extra latency (must stay below
    ``tick_duration``); in the tick world it manifests as inbox
    position, the only observable a bounded delay has there.
``reorder``
    A seeded shuffle of a receiver's per-round inbox, generalizing the
    scheduler's ``inbox_order="random"`` knob.  Always canonicalizes
    (sorts by sender) before shuffling so the result is deterministic
    even when arrival order is not (TCP).
``resets`` / ``slow``
    Connection-level faults for the TCP transport: abort the
    sender→receiver socket at a given tick (exercising reconnect with
    backoff), or mark a peer slow so every message it sends gets the
    maximum sub-``delta`` delay.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Sequence

from repro.config import ProcessId, derive_rng
from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - avoids a cycle via repro.runtime
    from repro.runtime.envelope import Envelope

# Tags for deriving independent decision streams from one plan seed —
# the same ``seed ^ tag`` idiom the scheduler uses for its inbox RNG.
_MESSAGE_TAG = 0xFA17
_ORDER_TAG = 0x04DE

# 64-bit odd multipliers for mixing the per-message coordinates.
_MIX = (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB, 0xD6E8FEB86659FD93)
_MASK = (1 << 64) - 1


def _mix(seed: int, tag: int, *coords: int) -> int:
    """Collision-resistant integer mix of a decision's coordinates."""
    acc = (seed ^ tag) & _MASK
    for i, coord in enumerate(coords):
        acc ^= ((coord + 1) * _MIX[i % len(_MIX)]) & _MASK
        acc = (acc * 0x2545F4914F6CDD1D) & _MASK
        acc ^= acc >> 32
    return acc


@dataclass(frozen=True)
class ConnectionReset:
    """Abort the ``sender -> receiver`` TCP connection at ``tick``.

    The reset fires on the first send over that edge at or after the
    tick; the transport must survive it by reconnecting with capped
    exponential backoff (no message from a correct sender may be lost
    to a reset — that is what distinguishes a reset from a drop).
    """

    tick: int
    sender: ProcessId
    receiver: ProcessId


@dataclass(frozen=True)
class ProcessCrash:
    """Crash ``pid`` at the start of ``at_tick``; restart it at the
    start of ``restart_tick`` (exclusive down window ``[at_tick,
    restart_tick)``).

    A crashed-but-honest process is *not* Byzantine: it never lies, so
    safety properties still bind it.  But while down it is
    omission-equivalent — it neither sends nor receives, and deliveries
    due inside the window are lost — so it **does** count toward the
    run's failure count ``f`` (see :attr:`FaultPlan.faulty`), exactly
    the accounting the adaptive word bound needs.  On restart the
    runtime replays the process's WAL (see :mod:`repro.recovery`) and
    rejoins it tick-aligned.
    """

    pid: ProcessId
    at_tick: int
    restart_tick: int


@dataclass(frozen=True)
class FaultDecision:
    """The network's verdict on one message (one send on one edge)."""

    drop: bool = False
    duplicates: int = 0
    """Extra copies delivered on top of the original."""
    delay: float = 0.0
    """Delivery delay as a fraction of the synchrony bound, in [0, 1)."""

    def copies(self) -> list[float]:
        """Delays for every delivered copy; empty when dropped."""
        if self.drop:
            return []
        return [self.delay] * (1 + self.duplicates)


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, fully deterministic description of network misbehavior.

    Two runs (on the same runtime) configured with equal plans suffer
    bit-identical faults.  All rates are probabilities in ``[0, 1]``.

    >>> plan = FaultPlan(seed=1, drop_rate=0.5, lossy=frozenset({2}))
    >>> plan.decide(0, 1, tick=3, seq=0).drop   # non-lossy sender
    False
    >>> d1 = plan.decide(2, 1, tick=3, seq=0)
    >>> d2 = plan.decide(2, 1, tick=3, seq=0)
    >>> d1 == d2                                # pure function of coords
    True
    """

    seed: int = 0
    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    delay_rate: float = 0.0
    reorder_rate: float = 0.0
    max_delay: float = 0.5
    """Largest delay, as a fraction of the synchrony bound (< 1)."""
    lossy: frozenset[ProcessId] = frozenset()
    """Senders whose messages may be dropped (send-omission faults).
    Empty = every edge is eligible (exceeds the paper's model)."""
    slow: frozenset[ProcessId] = frozenset()
    """Senders whose every message gets the maximum sub-delta delay."""
    resets: tuple[ConnectionReset, ...] = ()
    max_duplicates: int = 2
    crashes: tuple[ProcessCrash, ...] = ()
    """Scheduled crash/restart faults.  Executing them requires a
    runtime wired with a :class:`~repro.recovery.RecoveryManager` —
    a crashed process can only rejoin from durable state."""

    def __post_init__(self) -> None:
        for name in ("drop_rate", "duplicate_rate", "delay_rate", "reorder_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1], got {rate}")
        if not 0.0 <= self.max_delay < 1.0:
            raise ConfigurationError(
                f"max_delay must be a fraction of the synchrony bound in "
                f"[0, 1), got {self.max_delay}"
            )
        if self.max_duplicates < 0:
            raise ConfigurationError(
                f"max_duplicates must be >= 0, got {self.max_duplicates}"
            )
        for reset in self.resets:
            if reset.tick < 0:
                raise ConfigurationError(f"reset tick must be >= 0, got {reset.tick}")
        windows: dict[ProcessId, list[tuple[int, int]]] = {}
        for crash in self.crashes:
            if crash.at_tick < 1:
                raise ConfigurationError(
                    f"crash tick must be >= 1 (a process crashing before it "
                    f"ever ran has nothing to recover), got {crash.at_tick}"
                )
            if crash.restart_tick <= crash.at_tick:
                raise ConfigurationError(
                    f"restart tick must be after the crash tick, got "
                    f"crash at {crash.at_tick}, restart at {crash.restart_tick}"
                )
            windows.setdefault(crash.pid, []).append(
                (crash.at_tick, crash.restart_tick)
            )
        for pid, intervals in windows.items():
            intervals.sort()
            for (_, hi), (lo, _) in zip(intervals, intervals[1:]):
                if lo < hi:
                    raise ConfigurationError(
                        f"process {pid} has overlapping crash windows: "
                        f"a process must restart before it can crash again"
                    )

    # ------------------------------------------------------------------
    # Per-message decisions
    # ------------------------------------------------------------------

    def is_active(self) -> bool:
        """Whether the plan perturbs anything at all."""
        return bool(
            self.drop_rate
            or self.duplicate_rate
            or self.delay_rate
            or self.reorder_rate
            or self.slow
            or self.resets
            or self.crashes
        )

    def decide(
        self, sender: ProcessId, receiver: ProcessId, tick: int, seq: int
    ) -> FaultDecision:
        """The (deterministic) fate of the ``seq``-th message sent on the
        ``sender -> receiver`` edge during ``tick``.

        Every verdict consumes a **fixed schedule of five draws** —
        drop gate, duplicate gate, duplicate count, delay gate, delay
        amount — regardless of which rates are set.  Historically, draws
        were made lazily inside the conditionals, so toggling one rate
        (or setting ``max_duplicates=0``) shifted the draws every *other*
        fault type saw, and "the same seed" meant different duplicates
        and delays across plan configs.  With the fixed schedule, the
        duplicate/delay streams of two plans differing only in
        ``drop_rate`` are identical (see tests/test_faults.py).
        """
        rng = derive_rng(
            self.seed, _MESSAGE_TAG ^ _mix(0, 0, sender, receiver, tick, seq)
        )
        drop_draw = rng.random()
        duplicate_gate_draw = rng.random()
        duplicate_count_draw = rng.random()
        delay_gate_draw = rng.random()
        delay_amount_draw = rng.random()

        drop = bool(
            self.drop_rate
            and (not self.lossy or sender in self.lossy)
            and drop_draw < self.drop_rate
        )
        duplicates = 0
        if (
            self.duplicate_rate
            and self.max_duplicates  # a zero cap makes a fired verdict a no-op
            and duplicate_gate_draw < self.duplicate_rate
        ):
            # duplicate_count_draw in [0, 1) -> uniform over 1..max_duplicates.
            duplicates = 1 + int(duplicate_count_draw * self.max_duplicates)
        delay = 0.0
        if sender in self.slow:
            delay = self.max_delay
        elif self.delay_rate and delay_gate_draw < self.delay_rate:
            delay = delay_amount_draw * self.max_delay
        return FaultDecision(drop=drop, duplicates=duplicates, delay=delay)

    def order_inbox(
        self, receiver: ProcessId, tick: int, envelopes: Sequence[Envelope]
    ) -> list[Envelope]:
        """Deterministically (re)order one receiver's per-round inbox.

        Canonicalizes first (sender sort) so the result does not depend
        on arrival order, then applies a seeded shuffle with probability
        ``reorder_rate`` — the within-``delta`` adversarial scheduling
        the synchronous model permits (see Lemma 18's skew tolerance).
        """
        ordered = sorted(envelopes, key=lambda e: (e.sender, e.sent_at))
        return self.maybe_shuffle(receiver, tick, ordered)

    def maybe_shuffle(
        self, receiver: ProcessId, tick: int, envelopes: Sequence[Envelope]
    ) -> list[Envelope]:
        """The shuffle half of :meth:`order_inbox`, for callers whose
        inbox order is already deterministic (the tick simulator, which
        sorts by sub-``delta`` delay first).  Each ``(receiver, tick)``
        draws from its own RNG, so skipping inboxes with nothing to
        reorder changes no other inbox's order."""
        ordered = list(envelopes)
        if not self.reorder_rate or len(ordered) < 2:
            return ordered
        rng = derive_rng(self.seed, _ORDER_TAG ^ _mix(0, 0, receiver, tick))
        if rng.random() < self.reorder_rate:
            rng.shuffle(ordered)
        return ordered

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------

    @property
    def faulty(self) -> frozenset[ProcessId]:
        """Processes whose faults count toward the run's ``f`` (omission
        senders and crash/restart victims — a down process is
        omission-equivalent for its whole window).  Duplication, bounded
        delay, reordering, and connection resets are *model-legal*
        perturbations and do not count."""
        faulty = set(self.lossy) if self.drop_rate else set()
        faulty.update(crash.pid for crash in self.crashes)
        return frozenset(faulty)

    def crash_at(self, tick: int) -> tuple[ProcessCrash, ...]:
        """Crashes scheduled to fire at the start of ``tick``."""
        return tuple(c for c in self.crashes if c.at_tick == tick)

    def restart_at(self, tick: int) -> tuple[ProcessCrash, ...]:
        """Restarts scheduled to fire at the start of ``tick``."""
        return tuple(c for c in self.crashes if c.restart_tick == tick)

    def down_at(self, tick: int) -> frozenset[ProcessId]:
        """Processes inside a crash window at ``tick``."""
        return frozenset(
            c.pid for c in self.crashes if c.at_tick <= tick < c.restart_tick
        )

    def reseeded(self, seed: int) -> "FaultPlan":
        """The same fault mix under a different seed."""
        return replace(self, seed=seed)

    def describe(self) -> str:
        """One-line human summary (benchmarks put it in their tables)."""
        parts = [f"seed={self.seed}"]
        if self.drop_rate:
            scope = f" by {sorted(self.lossy)}" if self.lossy else " on all edges"
            parts.append(f"drop={self.drop_rate:g}{scope}")
        if self.duplicate_rate:
            parts.append(f"dup={self.duplicate_rate:g}")
        if self.delay_rate or self.slow:
            parts.append(f"delay={self.delay_rate:g}(<= {self.max_delay:g}δ)")
        if self.slow:
            parts.append(f"slow={sorted(self.slow)}")
        if self.reorder_rate:
            parts.append(f"reorder={self.reorder_rate:g}")
        if self.resets:
            parts.append(f"resets={len(self.resets)}")
        if self.crashes:
            parts.append(
                "crashes="
                + ",".join(
                    f"p{c.pid}@[{c.at_tick},{c.restart_tick})" for c in self.crashes
                )
            )
        return ", ".join(parts) if len(parts) > 1 else f"seed={self.seed} (pristine)"
