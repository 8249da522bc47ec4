"""Unit tests for the word-complexity model and ledger."""

from dataclasses import dataclass

import pytest

from repro.errors import WordAccountingError
from repro.metrics.words import (
    WordLedger,
    payload_phase,
    payload_signatures,
    payload_words,
)


@dataclass(frozen=True)
class TwoWordPayload:
    body: str

    def words(self) -> int:
        return 2


@dataclass(frozen=True)
class CertLikePayload:
    def words(self) -> int:
        return 1

    def signatures(self) -> int:
        return 6


class TestWordModel:
    def test_default_is_one_word(self):
        assert payload_words("any string") == 1
        assert payload_words(42) == 1

    def test_payload_words_method_respected(self):
        assert payload_words(TwoWordPayload("x")) == 2

    def test_zero_word_payload_is_an_error(self):
        """Regression: a ``words()`` result below 1 used to be silently
        clamped up to the minimum, masking broken payload accounting."""

        @dataclass(frozen=True)
        class Zero:
            def words(self) -> int:
                return 0

        @dataclass(frozen=True)
        class Negative:
            def words(self) -> int:
                return -3

        with pytest.raises(WordAccountingError, match="Zero.words"):
            payload_words(Zero())
        with pytest.raises(WordAccountingError, match="-3"):
            payload_words(Negative())

    def test_ledger_refuses_misbehaving_payload(self):
        @dataclass(frozen=True)
        class Broken:
            def words(self) -> int:
                return 0

        ledger = WordLedger()
        with pytest.raises(WordAccountingError):
            ledger.record(
                tick=0, sender=0, receiver=1, payload=Broken(), scope="s",
                sender_correct=True,
            )
        assert ledger.records == ()

    def test_non_callable_words_attribute_ignored(self):
        @dataclass(frozen=True)
        class FieldNamedWords:
            words: int = 7  # a data field, not an accounting method

        assert payload_words(FieldNamedWords()) == 1

    def test_unsigned_payloads_carry_zero_signatures(self):
        """Regression: payloads without ``signatures()`` used to count
        one signature per word, inflating signature totals for bare
        strings and plain test payloads."""
        assert payload_signatures(TwoWordPayload("x")) == 0
        assert payload_signatures("any string") == 0
        assert payload_signatures(42) == 0

    def test_negative_signature_count_is_an_error(self):
        """Regression: a negative ``signatures()`` result used to be
        silently clamped to 0 while ``words()`` below 1 raised."""

        @dataclass(frozen=True)
        class NegativeSignatures:
            def signatures(self) -> int:
                return -2

        with pytest.raises(WordAccountingError, match="NegativeSignatures.*-2"):
            payload_signatures(NegativeSignatures())
        ledger = WordLedger()
        with pytest.raises(WordAccountingError):
            ledger.record(
                tick=0, sender=0, receivers=(1, 2), payload=NegativeSignatures(),
                scope="s", sender_correct=True,
            )
        assert ledger.bills == [] and ledger.correct_words == 0

    def test_signatures_method_respected(self):
        """A threshold certificate: 1 word, quorum-many signatures."""
        assert payload_words(CertLikePayload()) == 1
        assert payload_signatures(CertLikePayload()) == 6

    def test_phase_extracted_when_advertised(self):
        @dataclass(frozen=True)
        class Phased:
            phase: int

            def words(self) -> int:
                return 1

        assert payload_phase(Phased(3)) == 3
        assert payload_phase("no phase") is None

        @dataclass(frozen=True)
        class WeirdPhase:
            phase: str = "not-a-phase"

        assert payload_phase(WeirdPhase()) is None


class TestLedger:
    def _ledger(self):
        ledger = WordLedger()
        ledger.record(
            tick=0, sender=0, receiver=1, payload="a", scope="bb",
            sender_correct=True,
        )
        ledger.record(
            tick=0, sender=0, receiver=2, payload=TwoWordPayload("b"),
            scope="bb/weak_ba", sender_correct=True,
        )
        ledger.record(
            tick=1, sender=3, receiver=1, payload="evil", scope="byzantine",
            sender_correct=False,
        )
        return ledger

    def test_correct_words_excludes_adversary(self):
        ledger = self._ledger()
        assert ledger.correct_words == 3
        assert ledger.total_words == 4

    def test_message_count(self):
        assert self._ledger().correct_messages == 2

    def test_self_sends_ignored(self):
        ledger = WordLedger()
        ledger.record(
            tick=0, sender=1, receiver=1, payload="self", scope="s",
            sender_correct=True,
        )
        assert ledger.correct_words == 0
        assert ledger.records == ()

    def test_scope_attribution(self):
        by_scope = self._ledger().words_by_scope()
        assert by_scope == {"bb": 1, "bb/weak_ba": 2}

    def test_scope_attribution_with_adversary(self):
        by_scope = self._ledger().words_by_scope(correct_only=False)
        assert by_scope["byzantine"] == 1

    def test_payload_type_breakdown(self):
        by_type = self._ledger().words_by_payload_type()
        assert by_type == {"str": 1, "TwoWordPayload": 2}

    def test_per_sender_breakdown(self):
        assert self._ledger().words_by_sender() == {0: 3}

    def test_signature_count_uses_contained_signatures(self):
        ledger = WordLedger()
        ledger.record(
            tick=0, sender=0, receiver=1, payload=CertLikePayload(), scope="s",
            sender_correct=True,
        )
        assert ledger.correct_words == 1
        assert ledger.signature_count() == 6

    def test_unsigned_sends_do_not_inflate_signature_totals(self):
        """Regression for the words-as-signatures fallback: a run of
        bare-string sends must contribute zero signatures."""
        assert self._ledger().signature_count() == 0
        assert self._ledger().signature_count(correct_only=False) == 0

    def test_record_returns_the_appended_record(self):
        ledger = WordLedger()
        record = ledger.record(
            tick=2, sender=0, receiver=1, payload="x", scope="s",
            sender_correct=True,
        )
        assert record is ledger.bills[-1]
        assert record.expand() == [ledger.records[-1]]
        assert ledger.record(
            tick=2, sender=1, receiver=1, payload="self", scope="s",
            sender_correct=True,
        ) is None

    def test_words_by_phase(self):
        @dataclass(frozen=True)
        class Phased:
            phase: int

            def words(self) -> int:
                return 2

        ledger = WordLedger()
        ledger.record(
            tick=0, sender=0, receiver=1, payload=Phased(1), scope="s",
            sender_correct=True,
        )
        ledger.record(
            tick=1, sender=1, receiver=0, payload=Phased(1), scope="s",
            sender_correct=True,
        )
        ledger.record(
            tick=2, sender=0, receiver=1, payload=Phased(3), scope="s",
            sender_correct=True,
        )
        ledger.record(
            tick=2, sender=2, receiver=1, payload=Phased(3), scope="s",
            sender_correct=False,
        )
        ledger.record(
            tick=3, sender=0, receiver=1, payload="unphased", scope="s",
            sender_correct=True,
        )
        assert ledger.words_by_phase() == {1: 4, 3: 2}
        assert ledger.words_by_phase(correct_only=False) == {1: 4, 3: 4}
