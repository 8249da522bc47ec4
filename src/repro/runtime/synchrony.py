"""Synchrony models: when the network must deliver, and when rounds end.

The paper's analysis is lockstep-synchronous — every message sent at
tick ``T`` is delivered at ``T + 1`` and every process advances one
round per tick.  That assumption was baked into the runtimes as a
literal ``+ 1``; this module makes it a first-class, swappable model:

:class:`Lockstep`
    The paper's model, generalized to an arbitrary bound ``delta``:
    messages sent in round ``k`` (tick ``k * delta``) are delivered by
    the next round boundary and processes advance every ``delta``
    ticks.  ``delta=1`` is the historical scheduler, bit-for-bit.

:class:`PartialSynchrony`
    The DLS/GST model the successor papers (Civit et al.,
    arXiv:2308.03524) work in.  Before a **global stabilization time**
    ``gst`` the adversary controls delivery arbitrarily (any tick in
    ``[sent + 1, gst + delta]``); from ``gst`` on every link respects
    the bound ``delta``.  Round advancement becomes
    **certificate-∨-timeout**: a process leaves its round as soon as a
    quorum of distinct senders has reached it (certificate) or when a
    per-round timeout with exponential back-off fires.  Safety must
    never depend on which; liveness returns once timeouts outgrow the
    real post-GST delay.

Determinism contract
--------------------

Every open decision a model makes is either

* a **pure seeded function** of ``(seed, sender, receiver, sent_at,
  seq)`` — the :class:`~repro.faults.plan.FaultPlan` idiom, so
  :meth:`SynchronyModel.reseeded` re-derives *every* sub-schedule
  (pre-GST delays, post-GST link latencies, per-process drift)
  consistently; or
* an explicit :class:`~repro.mc.choices.ChoiceSource` **choice point**
  (``kind="net-delay"``), so the model checker can exhaustively
  explore adversarial pre-GST schedules and prove no safety property
  is timing-dependent.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.config import ProcessId
from repro.errors import ConfigurationError
from repro.faults.plan import _mix

if TYPE_CHECKING:  # pragma: no cover - avoids a cycle via repro.mc
    from repro.mc.choices import ChoiceSource

# Decision-stream tags (the FaultPlan ``seed ^ tag`` idiom); distinct
# from the fault tags so a shared seed never aliases streams.
_DELAY_TAG = 0x65D7
_LINK_TAG = 0x11A7
_DRIFT_TAG = 0xD21F

PRE_GST_CAP = 8
"""Largest seeded pre-GST delay, in ticks (the choice-point path is
bounded by ``gst + delta`` instead — the model checker must be able to
hold a message until stabilization)."""


@dataclass(frozen=True)
class SynchronyModel:
    """Base class: the timing laws one run executes under.

    ``delta`` is the message-delay bound in ticks (the paper's ``δ``).
    Subclasses define delivery and round-advancement policy; the
    scheduler asks only through this interface.
    """

    delta: int = 1

    def __post_init__(self) -> None:
        if self.delta < 1:
            raise ConfigurationError(f"delta must be >= 1, got {self.delta}")

    # -- structure ------------------------------------------------------

    @property
    def trivial(self) -> bool:
        """True iff the model is the historical ``delta=1`` lockstep —
        the scheduler then takes its original fast path, byte-identical
        to every pre-synchrony run."""
        return False

    @property
    def early_advance(self) -> bool:
        """Whether a quorum certificate ends a round before its timeout."""
        return False

    # -- delivery -------------------------------------------------------

    def delivery_tick(
        self,
        sender: ProcessId,
        receiver: ProcessId,
        sent_at: int,
        seq: int,
        chooser: "ChoiceSource | None" = None,
    ) -> int:
        """The tick at which a message sent at ``sent_at`` is delivered.

        ``seq`` numbers the sends on one edge within one tick (the
        injector's convention), so seeded draws are pure per-message.
        ``chooser`` (model checking) turns the adversary's freedom into
        an explicit choice point instead of a seeded draw.
        """
        raise NotImplementedError

    # -- round pacing ---------------------------------------------------

    def timeout_base(self) -> int:
        """Initial per-round timeout, in ticks."""
        return self.delta

    def next_timeout(self, current: int) -> int:
        """Timeout after one more round expired without a certificate."""
        return current

    def drift_for(self, pid: ProcessId, round_index: int) -> int:
        """Bounded clock drift: extra ticks ``pid`` waits in
        ``round_index`` on top of its nominal timeout (``0`` = perfect
        clocks)."""
        return 0

    # -- derivation -----------------------------------------------------

    def reseeded(self, seed: int) -> "SynchronyModel":
        """The same timing laws under a different seed (a no-op for
        models without seeded sub-schedules)."""
        return self

    def describe(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class Lockstep(SynchronyModel):
    """The paper's synchronous model with bound ``delta``.

    Messages are delivered exactly ``delta`` ticks after sending
    (self-deliveries after one tick — local, not a network hop) and
    every round lasts exactly ``delta`` ticks with no early advance, so
    a ``delta=2`` run executes the *same* protocol trajectory as
    ``delta=1`` stretched 2× in ticks — identical sends, identical word
    bill (the satellite regression in ``tests/test_synchrony.py`` pins
    this).
    """

    @property
    def trivial(self) -> bool:
        return self.delta == 1

    def delivery_tick(
        self,
        sender: ProcessId,
        receiver: ProcessId,
        sent_at: int,
        seq: int,
        chooser: "ChoiceSource | None" = None,
    ) -> int:
        if sender == receiver:
            return sent_at + 1
        return sent_at + self.delta

    def describe(self) -> str:
        return f"lockstep(delta={self.delta})"


#: The historical scheduler's model; ``Simulation(synchrony=None)``
#: resolves to this.
LOCKSTEP = Lockstep()


@dataclass(frozen=True)
class PartialSynchrony(SynchronyModel):
    """GST partial synchrony with seeded per-link latencies and drift.

    Delivery law: a message sent at ``T`` on a non-self link is
    delivered at

    * some adversary-chosen tick in ``[T + 1, gst + delta]`` when
      ``T < gst`` (a choice point under the model checker, a seeded
      per-link draw of at most :data:`PRE_GST_CAP` ticks otherwise);
    * ``T + latency(link)`` with ``1 <= latency <= delta`` when
      ``T >= gst`` — the link's seeded base latency, fixed for the run,
      so "fast" and "slow" links persist post-GST the way real
      deployments' do.

    Round law (the scheduler's shared round clock): a round ends at a
    **certificate** (a quorum of distinct senders reached some correct
    process — the network-layer idealization of certificate gossip;
    timeout resets to the ``timeout`` base) or at a **timeout**
    (current estimate expired), whichever first.  The estimate
    escalates by ``backoff`` (capped at ``8 * delta``) only when the
    expired round received traffic that was more than a full round
    old — evidence the network outpaces the round length.  ``drift``
    staggers each process's resume of a new round by a seeded
    per-(process, round) offset in ``[0, drift]`` — bounded clock skew.
    """

    gst: int = 0
    seed: int = 0
    pre_gst_levels: int = 3
    """Choice-point arity for a pre-GST delivery: evenly spaced ticks
    spanning ``[sent + 1, gst + delta]``, always including both ends."""
    timeout: int | None = None
    """Base per-round timeout in ticks (``None`` = ``delta``)."""
    backoff: float = 2.0
    drift: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.gst < 0:
            raise ConfigurationError(f"gst must be >= 0, got {self.gst}")
        if self.pre_gst_levels < 2:
            raise ConfigurationError(
                f"pre_gst_levels must be >= 2 (earliest and hold-until-GST "
                f"must both be representable), got {self.pre_gst_levels}"
            )
        if self.timeout is not None and self.timeout < 1:
            raise ConfigurationError(
                f"timeout must be >= 1, got {self.timeout}"
            )
        if self.backoff < 1.0:
            raise ConfigurationError(
                f"backoff must be >= 1, got {self.backoff}"
            )
        if self.drift < 0:
            raise ConfigurationError(f"drift must be >= 0, got {self.drift}")

    @property
    def early_advance(self) -> bool:
        return True

    def timeout_base(self) -> int:
        return self.timeout if self.timeout is not None else self.delta

    def next_timeout(self, current: int) -> int:
        grown = max(current + 1, int(current * self.backoff))
        return min(grown, max(8 * self.delta, self.timeout_base()))

    def drift_for(self, pid: ProcessId, round_index: int) -> int:
        if self.drift == 0:
            return 0
        return _mix(self.seed, _DRIFT_TAG, pid, round_index) % (self.drift + 1)

    def _link_latency(self, sender: ProcessId, receiver: ProcessId) -> int:
        """Post-GST latency of one link: seeded, fixed for the run,
        uniform over ``1..delta``."""
        if self.delta == 1:
            return 1
        return 1 + _mix(self.seed, _LINK_TAG, sender, receiver) % self.delta

    def delivery_tick(
        self,
        sender: ProcessId,
        receiver: ProcessId,
        sent_at: int,
        seq: int,
        chooser: "ChoiceSource | None" = None,
    ) -> int:
        if sender == receiver:  # local, never on the wire
            return sent_at + 1
        if sent_at >= self.gst:
            return sent_at + self._link_latency(sender, receiver)
        earliest = sent_at + 1
        latest = self.gst + self.delta
        if chooser is not None:
            options = self._delay_options(earliest, latest)
            pick = chooser.choose(
                "net-delay", (sender, receiver, sent_at, seq), len(options)
            )
            return options[pick]
        draw = _mix(self.seed, _DELAY_TAG, sender, receiver, sent_at, seq)
        return min(earliest + draw % (PRE_GST_CAP + 1), latest)

    def _delay_options(self, earliest: int, latest: int) -> list[int]:
        """Evenly spaced delivery ticks spanning ``[earliest, latest]``,
        at most ``pre_gst_levels`` of them, both endpoints always in —
        the checker must be able to deliver immediately *and* hold a
        message hostage until stabilization."""
        if latest <= earliest:
            return [earliest]
        levels = min(self.pre_gst_levels, latest - earliest + 1)
        span = latest - earliest
        ticks = sorted({
            earliest + round(span * i / (levels - 1)) for i in range(levels)
        })
        return ticks

    def reseeded(self, seed: int) -> "PartialSynchrony":
        """The same GST/timeout laws under a different seed: pre-GST
        delays, link latencies, and drift offsets all re-derive."""
        return replace(self, seed=seed)

    def describe(self) -> str:
        parts = [f"gst={self.gst}", f"delta={self.delta}"]
        if self.timeout is not None:
            parts.append(f"timeout={self.timeout}")
        parts.append(f"backoff={self.backoff:g}")
        if self.drift:
            parts.append(f"drift={self.drift}")
        parts.append(f"seed={self.seed}")
        return f"gst({', '.join(parts)})"


def parse_synchrony(spec: str) -> SynchronyModel:
    """Parse a CLI synchrony spec.

    ``lockstep`` or ``lockstep:<delta>`` → :class:`Lockstep`;
    ``gst:<tick>`` or ``gst:<tick>:<delta>`` → :class:`PartialSynchrony`
    (e.g. ``repro sweep --synchrony gst:4``).
    """
    parts = spec.split(":")
    kind = parts[0]
    try:
        if kind == "lockstep" and len(parts) <= 2:
            delta = int(parts[1]) if len(parts) == 2 else 1
            return Lockstep(delta=delta)
        if kind == "gst" and 2 <= len(parts) <= 3:
            gst = int(parts[1])
            delta = int(parts[2]) if len(parts) == 3 else 1
            return PartialSynchrony(gst=gst, delta=delta)
    except ValueError as exc:
        raise ConfigurationError(f"bad synchrony spec {spec!r}: {exc}") from exc
    raise ConfigurationError(
        f"bad synchrony spec {spec!r}; expected 'lockstep[:delta]' or "
        f"'gst:<tick>[:delta]'"
    )
