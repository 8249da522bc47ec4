"""The choice-point interface: nondeterminism as an explicit decision.

A run of the tick simulator consults its :class:`ChoiceSource` at every
point where the model leaves behavior unspecified:

* the within-``delta`` **order** of a correct process's per-tick inbox;
* the network's verdict on each message — **drop** (send omission),
  **duplicate**, sub-``delta`` **delay** — via
  :class:`~repro.faults.injector.FaultInjector`;
* **adversary parameters** a scenario leaves open: which process is
  corrupted, at which tick, which victim a dealt certificate targets
  (scenario builders and choice-driven behaviors call :meth:`choose`
  directly).

Each consultation is a :class:`ChoicePoint` with a finite number of
``options``; the source answers with an index.  Three implementations:

:class:`SeededChoices`
    Draws uniformly from one seeded RNG stream — the sampling behavior
    the repo always had, now expressed through the interface.  Because
    every answer is logged, a seeded run is *also* a recorded run: its
    decision list replays bit-identically through
    :class:`ScriptedChoices`.
:class:`ScriptedChoices`
    Answers from a fixed decision list.  Non-strict mode defaults to
    option 0 past the end of the list (the explorer's prefix semantics);
    strict mode raises instead (replay must never improvise).
:class:`ChoiceSource` subclasses in general
    The explorer's DFS is just ``ScriptedChoices`` over systematically
    generated prefixes — no separate enumerating class is needed.

The option *set* at each point is governed by a :class:`ChoiceSpace` —
the bounded schedule space under exploration.  A point with one option
is not a branch: it is answered 0 and never logged, so decision
sequences stay short and shrinkable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from repro.config import ProcessId, derive_rng
from repro.errors import ModelCheckError
from repro.faults.plan import FaultDecision

if TYPE_CHECKING:  # pragma: no cover - avoids a cycle via repro.runtime
    from repro.runtime.envelope import Envelope


@dataclass(frozen=True)
class ChoiceSpace:
    """The bounded decision space offered to a :class:`ChoiceSource`.

    Exploration cost is the product of option counts over a run, so
    every field exists to keep that product finite and meaningful.

    Model-legality note: inbox reordering, duplication, and sub-``delta``
    delays are perturbations the synchronous model always allowed; drops
    are *send-omission faults* and count toward the run's failure number
    ``f``.  Scenarios that check the paper's properties must therefore
    keep ``droppable_senders`` within the corrupted/omission budget
    ``t`` (see DESIGN.md §8); an unrestricted drop space deliberately
    exceeds the model.
    """

    reorder: bool = True
    """Offer inbox permutations for correct receivers."""
    perm_cap: int = 6
    """Max orderings offered per inbox (first ``perm_cap`` distinct
    permutations in lexicographic index order; 6 = full S_3)."""
    drop_budget: int = 0
    """Max messages dropped per run (0 disables drop choice points)."""
    droppable_senders: frozenset[ProcessId] | None = None
    """Senders whose messages may be dropped; ``None`` = all."""
    droppable_payloads: frozenset[str] | None = None
    """Payload type names eligible for drops; ``None`` = all.  Scoping
    drops to the message class under attack (e.g. ``WbaFallbackCert``)
    keeps exhaustive exploration tractable."""
    max_duplicates: int = 0
    """Extra copies the network may choose to deliver (0 disables)."""
    delay_levels: int = 1
    """Number of evenly spaced sub-``delta`` delay options per message
    (1 = always deliver undelayed; k>1 offers delays ``i/k`` of the
    bound, which in the tick world manifest as inbox position)."""

    def __post_init__(self) -> None:
        if self.perm_cap < 1:
            raise ModelCheckError(f"perm_cap must be >= 1, got {self.perm_cap}")
        if self.drop_budget < 0:
            raise ModelCheckError(
                f"drop_budget must be >= 0, got {self.drop_budget}"
            )
        if self.max_duplicates < 0:
            raise ModelCheckError(
                f"max_duplicates must be >= 0, got {self.max_duplicates}"
            )
        if self.delay_levels < 1:
            raise ModelCheckError(
                f"delay_levels must be >= 1, got {self.delay_levels}"
            )

    def drop_eligible(self, sender: ProcessId, payload: object) -> bool:
        if self.drop_budget == 0:
            return False
        if self.droppable_senders is not None and sender not in self.droppable_senders:
            return False
        if (
            self.droppable_payloads is not None
            and type(payload).__name__ not in self.droppable_payloads
        ):
            return False
        return True


#: The space with no open decisions at all: every point collapses to its
#: canonical option, so a run under it is the pristine deterministic run.
CLOSED_SPACE = ChoiceSpace(reorder=False)


@dataclass(frozen=True)
class ChoicePoint:
    """One consultation of the source: ``kind`` + coordinates + arity."""

    kind: str
    coords: tuple
    options: int


@dataclass(frozen=True)
class LoggedChoice:
    """A resolved choice point, as recorded in a source's log."""

    point: ChoicePoint
    chosen: int


class ChoiceSource:
    """Base class: logging, budget accounting, and the scheduler-facing
    helpers that translate structured questions into :meth:`choose`
    calls.  Subclasses implement :meth:`_pick` only.

    Instances are **per-run**: they carry the drop-budget counter, the
    decision log and the payload-repr memo, so reusing one across runs
    would contaminate them.
    """

    def __init__(self, space: ChoiceSpace) -> None:
        self.space = space
        self.log: list[LoggedChoice] = []
        self._drops_used = 0
        self._reprs: dict[int, tuple[object, str]] = {}
        """``id(payload) -> (payload, repr(payload))``; holding the
        payload keeps its id from being reused within the run."""

    # ------------------------------------------------------------------
    # The primitive
    # ------------------------------------------------------------------

    def _pick(self, point: ChoicePoint) -> int:
        raise NotImplementedError

    def choose(self, kind: str, coords: tuple, options: int) -> int:
        """Resolve one choice point.  Points with a single option are
        answered 0 without logging — they are not branches."""
        if options < 1:
            raise ModelCheckError(f"choice point {kind}{coords} has no options")
        if options == 1:
            return 0
        point = ChoicePoint(kind=kind, coords=coords, options=options)
        chosen = self._pick(point)
        if not 0 <= chosen < options:
            raise ModelCheckError(
                f"source picked {chosen} outside 0..{options - 1} at {point}"
            )
        self.log.append(LoggedChoice(point=point, chosen=chosen))
        return chosen

    @property
    def decisions(self) -> list[int]:
        """The run's decision sequence so far (replayable)."""
        return [entry.chosen for entry in self.log]

    @property
    def drops_used(self) -> int:
        return self._drops_used

    # ------------------------------------------------------------------
    # State keys (shared with the explorer's fingerprints)
    # ------------------------------------------------------------------

    def payload_repr(self, payload: object) -> str:
        """``repr(payload)``, computed once per payload object per run.

        Reprs are deterministic and equality-faithful for this repo's
        payloads (frozen dataclasses of plain values) but not cheap, and
        a payload is keyed once per tick it sits in flight — by every
        copy of its multicast."""
        memo = self._reprs.get(id(payload))
        if memo is None:
            memo = self._reprs[id(payload)] = (payload, repr(payload))
        return memo[1]

    def envelope_key(self, envelope: "Envelope") -> tuple:
        """Equality-faithful key of one envelope (delivery tick aside)."""
        return (
            envelope.sender,
            envelope.receiver,
            envelope.sent_at,
            self.payload_repr(envelope.payload),
        )

    # ------------------------------------------------------------------
    # Scheduler-facing helpers
    # ------------------------------------------------------------------

    def fault_decision(
        self,
        sender: ProcessId,
        receiver: ProcessId,
        tick: int,
        seq: int,
        payload: object = None,
    ) -> FaultDecision:
        """The network's verdict on one send, drawn from the space."""
        space = self.space
        coords = (sender, receiver, tick, seq)
        drop = False
        if space.drop_eligible(sender, payload) and self._drops_used < space.drop_budget:
            drop = bool(self.choose("drop", coords, 2))
            if drop:
                self._drops_used += 1
        duplicates = 0
        if not drop and space.max_duplicates:
            duplicates = self.choose("dup", coords, space.max_duplicates + 1)
        delay = 0.0
        if not drop and space.delay_levels > 1:
            level = self.choose("delay", coords, space.delay_levels)
            delay = level / space.delay_levels
        return FaultDecision(drop=drop, duplicates=duplicates, delay=delay)

    def order_inbox(
        self, receiver: ProcessId, tick: int, envelopes: Sequence["Envelope"]
    ) -> list["Envelope"]:
        """Pick one of the offered orderings of a per-tick inbox.

        The incoming sequence is already canonical (the scheduler sorts
        by sub-``delta`` delay then sender); permutations that produce
        an identical envelope sequence (duplicated copies of one
        message) are collapsed, so the option count never inflates with
        symmetric branches."""
        envelopes = list(envelopes)
        if not self.space.reorder or len(envelopes) < 2:
            return envelopes
        orderings = _distinct_orderings(
            envelopes, self.space.perm_cap, self.envelope_key
        )
        chosen = self.choose("order", (receiver, tick), len(orderings))
        return list(orderings[chosen])


def _distinct_orderings(
    envelopes: list["Envelope"], cap: int, key: Callable[["Envelope"], object]
) -> list[tuple["Envelope", ...]]:
    """The first ``cap`` distinct permutations, in lexicographic index
    order (identity first), deduplicated by envelope equality.

    Each envelope is keyed by the index of its first indistinguishable
    occurrence (via ``key``, the same repr-faithful key state
    fingerprints use), so duplicated copies of one message never
    inflate the option count with indistinguishable orderings."""
    first: dict = {}
    canon = [first.setdefault(key(e), i) for i, e in enumerate(envelopes)]
    seen: set[tuple[int, ...]] = set()
    out: list[tuple] = []
    for indices in itertools.permutations(range(len(envelopes))):
        key = tuple(canon[i] for i in indices)
        if key in seen:
            continue
        seen.add(key)
        out.append(tuple(envelopes[i] for i in indices))
        if len(out) >= cap:
            break
    return out


class SeededChoices(ChoiceSource):
    """Uniform seeded sampling — the repo's historical RNG behavior,
    expressed as a :class:`ChoiceSource`.  One run = one walk through
    the space; the log makes the walk replayable as a script."""

    def __init__(self, space: ChoiceSpace, seed: int = 0) -> None:
        super().__init__(space)
        self.seed = seed
        self._rng = derive_rng(seed, 0x5C4E)

    def _pick(self, point: ChoicePoint) -> int:
        return self._rng.randrange(point.options)


class ScriptedChoices(ChoiceSource):
    """Answers from a fixed decision list.

    ``strict=False`` (explorer prefixes): past the end of the list,
    answer 0 — the canonical continuation.  ``strict=True`` (replay):
    running out of script, or a script entry out of range for its
    point, raises :class:`~repro.errors.ModelCheckError` — a replayed
    counterexample must never improvise, so a mismatch means the
    scenario diverged from the recording.
    """

    def __init__(
        self, space: ChoiceSpace, script: Sequence[int], *, strict: bool = False
    ) -> None:
        super().__init__(space)
        self.script = list(script)
        self.strict = strict
        self.consumed = 0

    def _pick(self, point: ChoicePoint) -> int:
        if self.consumed >= len(self.script):
            if self.strict:
                raise ModelCheckError(
                    f"replay script exhausted at choice point {point} "
                    f"(script length {len(self.script)})"
                )
            self.consumed += 1
            return 0
        chosen = self.script[self.consumed]
        self.consumed += 1
        if chosen >= point.options:
            raise ModelCheckError(
                f"script entry {chosen} out of range for {point}"
            )
        return chosen

    @property
    def in_free_region(self) -> bool:
        """Whether every scripted decision has been consumed — the
        explorer only prunes here (earlier, the script still mandates
        divergence from any previously visited state)."""
        return self.consumed >= len(self.script)
