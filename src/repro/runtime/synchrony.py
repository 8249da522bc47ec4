"""GST partial synchrony: when the network must deliver, and when rounds end.

The paper's analysis is lockstep-synchronous — every message sent at
tick ``T`` is delivered at ``T + 1`` and every process advances one
round per tick.  That is a run's default (``synchrony=None``: the
scheduler's sparse lockstep path).  The one other timing model is
:class:`PartialSynchrony`, the DLS/GST model the successor papers
(Civit et al., arXiv:2308.03524) work in.  Before a **global
stabilization time** ``gst`` the adversary controls delivery
arbitrarily (any tick in ``[sent + 1, gst + delta]``); from ``gst`` on
every link respects the bound ``delta``.  Round advancement becomes
**certificate-∨-timeout**: a round ends as soon as a quorum of distinct
senders has reached a correct process (certificate) or when a per-round
timeout with exponential back-off fires.  Safety must never depend on
which; liveness returns once timeouts outgrow the real post-GST delay.

Determinism contract
--------------------

Every open decision the model makes is either

* a **pure seeded function** of ``(seed, sender, receiver, sent_at,
  seq)`` — the :class:`~repro.faults.plan.FaultPlan` idiom, so
  :meth:`PartialSynchrony.reseeded` re-derives *every* sub-schedule
  (pre-GST delays, post-GST link latencies) consistently; or
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

PRE_GST_CAP = 8
"""Largest seeded pre-GST delay, in ticks (the choice-point path is
bounded by ``gst + delta`` instead — the model checker must be able to
hold a message until stabilization)."""

BACKOFF = 2
"""Factor by which a round timeout grows after a late round (capped at
``8 * delta``)."""


@dataclass(frozen=True)
class PartialSynchrony:
    """GST partial synchrony with seeded per-link latencies.

    Delivery law: a message sent at ``T`` on a non-self link is
    delivered at

    * some adversary-chosen tick in ``[T + 1, gst + delta]`` when
      ``T < gst`` (a choice point under the model checker, a seeded
      per-link draw of at most :data:`PRE_GST_CAP` ticks otherwise);
    * ``T + latency(link)`` with ``1 <= latency <= delta`` when
      ``T >= gst`` — the link's seeded base latency, fixed for the run,
      so "fast" and "slow" links persist post-GST the way real
      deployments' do.

    Self-deliveries always take one tick: local, never on the wire.

    Round law (the scheduler's shared round clock): a round ends at a
    **certificate** (a quorum of distinct senders reached some correct
    process — the network-layer idealization of certificate gossip;
    the timeout resets to ``delta``) or at a **timeout** (current
    estimate expired), whichever first.  The estimate grows by
    :data:`BACKOFF` (capped at ``8 * delta``) only when the expired
    round received traffic that was more than a full round old —
    evidence the network outpaces the round length.
    """

    gst: int = 0
    delta: int = 1
    """The post-GST message-delay bound in ticks (the paper's ``δ``), and
    the base round timeout."""
    seed: int = 0
    pre_gst_levels: int = 3
    """Choice-point arity for a pre-GST delivery: evenly spaced ticks
    spanning ``[sent + 1, gst + delta]``, always including both ends."""

    def __post_init__(self) -> None:
        if self.delta < 1:
            raise ConfigurationError(f"delta must be >= 1, got {self.delta}")
        if self.gst < 0:
            raise ConfigurationError(f"gst must be >= 0, got {self.gst}")
        if self.pre_gst_levels < 2:
            raise ConfigurationError(
                f"pre_gst_levels must be >= 2 (earliest and hold-until-GST "
                f"must both be representable), got {self.pre_gst_levels}"
            )

    def next_timeout(self, current: int) -> int:
        """Timeout after one more round expired with late traffic."""
        return min(current * BACKOFF, 8 * self.delta)

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
        """The tick at which a message sent at ``sent_at`` is delivered.

        ``seq`` numbers the sends on one edge within one tick (the
        injector's convention), so seeded draws are pure per-message.
        ``chooser`` (model checking) turns the adversary's freedom into
        an explicit choice point instead of a seeded draw.
        """
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
        delays and link latencies re-derive."""
        return replace(self, seed=seed)


def parse_synchrony(spec: str) -> PartialSynchrony | None:
    """Parse a CLI synchrony spec.

    ``lockstep`` → ``None`` (the default lockstep model);
    ``gst:<tick>`` or ``gst:<tick>:<delta>`` → :class:`PartialSynchrony`
    (e.g. ``repro sweep --synchrony gst:4``).
    """
    parts = spec.split(":")
    if spec == "lockstep":
        return None
    if parts[0] == "gst" and 2 <= len(parts) <= 3:
        try:
            gst = int(parts[1])
            delta = int(parts[2]) if len(parts) == 3 else 1
        except ValueError as exc:
            raise ConfigurationError(
                f"bad synchrony spec {spec!r}: {exc}"
            ) from exc
        return PartialSynchrony(gst=gst, delta=delta)
    raise ConfigurationError(
        f"bad synchrony spec {spec!r}; expected 'lockstep' or "
        f"'gst:<tick>[:delta]'"
    )
