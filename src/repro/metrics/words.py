"""The paper's word-complexity model and the per-run word ledger.

Section 2: *"a word contains a constant number of signatures and values
from a finite domain, and each message contains at least 1 word.  The
communication complexity of a protocol is the maximum number of words
sent by all correct processes, across all runs."*

Accordingly:

* a payload is one word unless it implements ``words()`` returning a
  larger size (signatures and threshold signatures are one word each;
  signature *chains*, as in Dolev–Strong, are as many words as links);
* the :class:`WordLedger` bills every network send — one
  :class:`WordBill` per multicast, standing for one copy per recipient —
  attributing it to the sender, the sender's protocol scope (for Figure
  1's composition accounting), and whether the sender was correct;
* complexity figures use :meth:`WordLedger.correct_words` — words sent
  by correct processes only, exactly the paper's measure.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from functools import partial
from operator import ne
from typing import Any, Callable, Iterator, Sequence

from repro.config import ProcessId
from repro.errors import WordAccountingError


def payload_words(payload: object) -> int:
    """Word size of a payload.

    A payload without ``words()`` counts as the minimum, one word; only
    payloads larger than that implement it.

    A ``words()`` result below 1 is a broken accounting method, not a
    small message — the paper's model says *every* message carries at
    least one word (Section 2), so silently clamping would mask the bug
    in whichever payload under-reports.  Raise instead.
    """
    words = getattr(payload, "words", None)
    if callable(words):
        count = int(words())
        if count < 1:
            raise WordAccountingError(
                f"{type(payload).__name__}.words() returned {count}; every "
                "message is at least 1 word (Section 2) — fix the payload's "
                "accounting instead of relying on a clamp"
            )
        return count
    return 1


def payload_signatures(payload: object) -> int:
    """Individual signatures *contained* in a payload.

    A threshold certificate is one word but contains its whole quorum's
    signatures; payloads advertise this via ``signatures()``.  Payloads
    without the method carry **zero** signatures: bare strings and plain
    test payloads are unsigned, and every signed protocol payload
    declares its count explicitly.  (Historically the fallback was one
    signature per word, which inflated signature totals for unsigned
    payloads — see tests/test_metrics.py for the regression.)

    A negative ``signatures()`` result is broken accounting, exactly
    like a ``words()`` result below 1: raise instead of clamping.
    """
    signatures = getattr(payload, "signatures", None)
    if callable(signatures):
        count = int(signatures())
        if count < 0:
            raise WordAccountingError(
                f"{type(payload).__name__}.signatures() returned {count}; a "
                "payload contains zero or more signatures — fix the "
                "payload's accounting instead of relying on a clamp"
            )
        return count
    return 0


def _byzantine_size(payload: object) -> tuple[int, int]:
    """``(words, signatures)`` of a payload a Byzantine process sent.

    A Byzantine process may send anything, including a payload whose
    accounting raises or reports an impossible size because a field it
    reads holds garbage.  That must not end the run: such a payload is
    billed the minimum, 1 word and 0 signatures.  (Only correct
    senders' words count toward the paper's measure.)
    """
    try:
        return payload_words(payload), payload_signatures(payload)
    except Exception:
        return 1, 0


def payload_phase(payload: object) -> int | None:
    """The protocol phase a payload belongs to, when it advertises one.

    Phase-structured payloads (weak BA, BB vetting, adaptive strong BA)
    carry a ``phase`` field; the ledger records it so per-phase word
    accounting — the paper's adaptivity measure — needs no replay.
    """
    phase = getattr(payload, "phase", None)
    return phase if isinstance(phase, int) else None


@dataclass(frozen=True)
class WordRecord:
    """One point-to-point copy, as the ledger's :attr:`WordLedger.records`
    view spells out a bill."""

    tick: int
    sender: ProcessId
    receiver: ProcessId
    words: int
    signatures: int
    scope: str
    payload_type: str
    sender_correct: bool
    phase: int | None = None
    """Protocol phase of the payload, when it advertises one — the unit
    of the paper's adaptivity accounting (silent phases cost nothing)."""


@dataclass(frozen=True)
class WordBill:
    """One multicast: a payload sent by ``sender`` to every process in
    ``receivers`` (send order, self-delivery excluded) during ``tick``.

    ``words``, ``signatures`` and ``phase`` describe *one* copy; a bill
    stands for ``len(receivers)`` copies of it."""

    tick: int
    sender: ProcessId
    receivers: tuple[ProcessId, ...]
    words: int
    signatures: int
    scope: str
    payload_type: str
    sender_correct: bool
    phase: int | None = None

    @property
    def copies(self) -> int:
        return len(self.receivers)

    def expand(self) -> list[WordRecord]:
        """The bill's per-copy records, in send order."""
        return [
            WordRecord(
                self.tick, self.sender, receiver, self.words, self.signatures,
                self.scope, self.payload_type, self.sender_correct, self.phase,
            )
            for receiver in self.receivers
        ]


@dataclass
class WordLedger:
    """Accumulates every send of a run and answers complexity queries.

    ``bills`` is append-only through :meth:`record`, one bill per
    multicast; every aggregate is computed from bills times their
    recipient count.  :meth:`record` keeps the running ``correct_words``
    total up to date — the model checker reads that total every tick, so
    recomputing it by summing the whole list made fingerprinting
    quadratic in run length.
    """

    bills: list[WordBill] = field(default_factory=list)
    _correct_words: int = field(default=0, init=False, repr=False, compare=False)
    _records: tuple[WordRecord, ...] = field(
        default=(), init=False, repr=False, compare=False
    )
    _expanded: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Constructing a ledger from pre-built bills (the run-export
        # loader does) must seed the running total too.
        self._correct_words = sum(
            b.words * b.copies for b in self.bills if b.sender_correct
        )

    def record(
        self,
        *,
        tick: int,
        sender: ProcessId,
        payload: object,
        scope: str,
        sender_correct: bool,
        receivers: Sequence[ProcessId] = (),
        receiver: ProcessId | None = None,
    ) -> WordBill | None:
        """Bill one multicast of ``payload`` to ``receivers`` (or to the
        single ``receiver``); returns the bill, or ``None`` when every
        recipient is the sender — local self-delivery is not network
        communication."""
        if receiver is not None:
            receivers = (receiver,)
        if sender in receivers:
            receivers = tuple(filter(partial(ne, sender), receivers))
        else:
            receivers = tuple(receivers)
        if not receivers:
            return None
        if sender_correct:
            words, signatures = payload_words(payload), payload_signatures(payload)
        else:
            words, signatures = _byzantine_size(payload)
        bill = WordBill(
            tick=tick,
            sender=sender,
            receivers=receivers,
            words=words,
            signatures=signatures,
            scope=scope,
            payload_type=type(payload).__name__,
            sender_correct=sender_correct,
            phase=payload_phase(payload),
        )
        self.bills.append(bill)
        if sender_correct:
            self._correct_words += bill.words * bill.copies
        return bill

    @property
    def records(self) -> tuple[WordRecord, ...]:
        """Read-only per-copy view of :attr:`bills`, expanded on read
        (exports, flow analysis and tests; no aggregate reads it)."""
        if self._expanded < len(self.bills):
            fresh = self.bills[self._expanded:]
            self._records += tuple(r for b in fresh for r in b.expand())
            self._expanded = len(self.bills)
        return self._records

    # ------------------------------------------------------------------
    # Aggregations
    # ------------------------------------------------------------------

    def _bills(self, correct_only: bool) -> Iterator[WordBill]:
        return (b for b in self.bills if b.sender_correct or not correct_only)

    @property
    def correct_words(self) -> int:
        """Total words sent by correct processes — the paper's measure."""
        return self._correct_words

    @property
    def total_words(self) -> int:
        """All words, including the adversary's (diagnostics only)."""
        return sum(b.words * b.copies for b in self.bills)

    @property
    def correct_messages(self) -> int:
        """Message count from correct processes (Dolev–Reischuk's measure)."""
        return sum(b.copies for b in self._bills(True))

    def _words_by(self, key: Callable[[WordBill], Any], correct_only: bool) -> dict:
        totals: dict = defaultdict(int)
        for b in self._bills(correct_only):
            totals[key(b)] += b.words * b.copies
        return dict(totals)

    def words_by_scope(self, correct_only: bool = True) -> dict[str, int]:
        """Words attributed to each protocol scope (Figure 1 accounting).

        A send made while the sender was inside nested scopes (e.g.
        ``bb/weak_ba/fallback``) is attributed to the full scope path.
        """
        return self._words_by(lambda b: b.scope, correct_only)

    def words_by_phase(self, correct_only: bool = True) -> dict[int, int]:
        """Words attributed to each protocol phase (adaptivity accounting).

        Only bills whose payload advertises a ``phase`` contribute; a
        phase that never appears sent nothing — exactly the paper's
        silent phase.
        """
        totals = self._words_by(lambda b: b.phase, correct_only)
        totals.pop(None, None)
        return totals

    def words_by_payload_type(self, correct_only: bool = True) -> dict[str, int]:
        return self._words_by(lambda b: b.payload_type, correct_only)

    def words_by_sender(self, correct_only: bool = True) -> dict[ProcessId, int]:
        return self._words_by(lambda b: b.sender, correct_only)

    def signature_count(self, correct_only: bool = True) -> int:
        """Lower-bound accounting: individual signatures transmitted.

        Dolev–Reischuk prove Omega(nt) *signatures* even when failure
        free; threshold signatures still *contain* their quorum's worth
        of signatures, so a certificate carrying a ``k``-quorum counts as
        ``k`` signatures here while remaining one *word*.  Payloads
        advertise their contained-signature count via ``signatures()``
        (recorded at send time as :attr:`WordBill.signatures`).
        """
        return sum(b.signatures * b.copies for b in self._bills(correct_only))
