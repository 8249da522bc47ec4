"""Unit tests for :class:`repro.runtime.pool.MessagePool`.

The pool realizes Lemma 18's acceptance window: the fallback runs with
round length ``2 * delta`` because correct processes may enter it up to
``delta`` apart, so a round-``r`` message can arrive while its receiver
is still in round ``r - 1``.  The invariants under test: non-matching
envelopes *survive* a ``take`` (they wait instead of being dropped),
``take_payloads`` composes the type filter with an optional predicate,
and skewed early arrivals are consumed exactly once, by the round that
logically owns them.
"""

from dataclasses import dataclass

from repro.runtime.envelope import Envelope
from repro.runtime.pool import MessagePool


@dataclass(frozen=True)
class RoundMsg:
    round: int
    body: str = "x"


@dataclass(frozen=True)
class OtherMsg:
    round: int


def envelope(payload, sender=0, at=0):
    return Envelope(
        sender=sender,
        payload=payload,
        sent_at=at,
        delivered_at=at + 1,
    )


class TestTake:
    def test_take_removes_only_matching(self):
        pool = MessagePool()
        early = envelope(RoundMsg(round=2), sender=3)
        due = envelope(RoundMsg(round=1), sender=4)
        pool.extend([early, due])
        taken = pool.take(lambda e: e.payload.round == 1)
        assert taken == [due]
        assert list(pool) == [early]

    def test_non_matching_messages_survive_for_a_later_take(self):
        """The Lemma 18 window: an earlier-round receiver must not lose
        a later-round message by looking at the pool too soon."""
        pool = MessagePool()
        future = envelope(RoundMsg(round=5), sender=2)
        pool.extend([future])
        assert pool.take(lambda e: e.payload.round == 4) == []
        assert len(pool) == 1  # still pooled after the non-matching take
        assert pool.take(lambda e: e.payload.round == 5) == [future]
        assert len(pool) == 0

    def test_take_preserves_arrival_order(self):
        pool = MessagePool()
        first = envelope(RoundMsg(round=1), sender=2)
        second = envelope(RoundMsg(round=1), sender=0)
        pool.extend([first, second])
        assert pool.take(lambda e: True) == [first, second]

    def test_taken_messages_are_consumed_exactly_once(self):
        pool = MessagePool()
        pool.extend([envelope(RoundMsg(round=1))])
        assert len(pool.take(lambda e: e.payload.round == 1)) == 1
        assert pool.take(lambda e: e.payload.round == 1) == []


class TestTakePayloads:
    def test_filters_by_payload_type(self):
        pool = MessagePool()
        wanted = envelope(RoundMsg(round=1), sender=1)
        noise = envelope(OtherMsg(round=1), sender=2)
        garbage = envelope("adversarial string", sender=3)
        pool.extend([wanted, noise, garbage])
        assert pool.take_payloads(RoundMsg) == [wanted]
        # The other payloads are untouched, not discarded.
        assert set(pool.peek(lambda e: True)) == {noise, garbage}

    def test_type_and_predicate_compose(self):
        pool = MessagePool()
        match = envelope(RoundMsg(round=2), sender=1)
        wrong_round = envelope(RoundMsg(round=3), sender=2)
        wrong_type = envelope(OtherMsg(round=2), sender=3)
        pool.extend([match, wrong_round, wrong_type])
        taken = pool.take_payloads(RoundMsg, lambda e: e.payload.round == 2)
        assert taken == [match]
        assert len(pool) == 2

    def test_predicate_never_sees_other_payload_types(self):
        """The type filter runs first, so predicates may touch
        type-specific attributes without guarding against garbage."""
        pool = MessagePool()
        pool.extend(
            [envelope("no .round attribute"), envelope(RoundMsg(round=7))]
        )
        taken = pool.take_payloads(RoundMsg, lambda e: e.payload.round == 7)
        assert len(taken) == 1


class TestPeek:
    def test_peek_does_not_consume(self):
        pool = MessagePool()
        pool.extend([envelope(RoundMsg(round=1))])
        assert len(pool.peek(lambda e: True)) == 1
        assert len(pool) == 1


class TestLemma18Window:
    def test_one_round_skew_is_absorbed(self):
        """A receiver still in round r-1 pools a round-r message and its
        round-r take finds it — no correct-process message is lost to
        the paper's delta entry skew."""
        pool = MessagePool()
        # Tick T: the receiver (logically in round 1) gets one on-time
        # round-1 message and one early round-2 message from a peer that
        # entered the fallback delta ahead.
        on_time = envelope(RoundMsg(round=1), sender=2, at=10)
        early = envelope(RoundMsg(round=2), sender=3, at=10)
        pool.extend([on_time, early])
        round1 = pool.take_payloads(RoundMsg, lambda e: e.payload.round == 1)
        assert round1 == [on_time]
        # Next tick: the receiver advances to round 2; the skewed
        # message is waiting alongside the newly delivered ones.
        late = envelope(RoundMsg(round=2), sender=2, at=11)
        pool.extend([late])
        round2 = pool.take_payloads(RoundMsg, lambda e: e.payload.round == 2)
        assert round2 == [early, late]
        assert len(pool) == 0

    def test_window_bounded_by_predicate_not_pool(self):
        """The pool itself never expires messages; round predicates are
        what bound the acceptance window, matching Lemma 18's 'accept
        messages for round r while in rounds r-1 and r'."""
        pool = MessagePool()
        stale = envelope(RoundMsg(round=1), sender=4, at=3)
        pool.extend([stale])
        # Rounds 2..5 take their own messages; the stale one stays.
        for r in range(2, 6):
            assert (
                pool.take_payloads(RoundMsg, lambda e, r=r: e.payload.round == r)
                == []
            )
        assert pool.peek(lambda e: True) == [stale]
