"""Unit tests for the choice-point substrate (``repro.mc.choices``)."""

import itertools

import pytest

from repro.errors import ModelCheckError
from repro.mc.choices import (
    CLOSED_SPACE,
    ChoicePoint,
    ChoiceSpace,
    ChoiceSource,
    ScriptedChoices,
    SeededChoices,
    _distinct_orderings,
)
from repro.runtime.envelope import Envelope


def _envelope(sender, payload="m", tick=1):
    return Envelope(
        sender=sender,
        payload=payload,
        sent_at=tick - 1,
        delivered_at=tick,
    )


class TestChoiceSpace:
    def test_validation(self):
        with pytest.raises(ModelCheckError):
            ChoiceSpace(perm_cap=0)
        with pytest.raises(ModelCheckError):
            ChoiceSpace(drop_budget=-1)
        with pytest.raises(ModelCheckError):
            ChoiceSpace(max_duplicates=-1)
        with pytest.raises(ModelCheckError):
            ChoiceSpace(delay_levels=0)

    @pytest.mark.parametrize(
        "params, opens",
        [
            ({}, False),
            (dict(reorder=False, perm_cap=1), False),
            (dict(drop_budget=1), True),
            (dict(drop_budget=1, droppable_payloads=frozenset()), True),
            (dict(max_duplicates=1), True),
            (dict(delay_levels=2), True),
        ],
    )
    def test_opens_fault_points(self, params, opens):
        """Whether a space can open a per-copy point is read from its
        budgets alone: a drop budget scoped to no payload still counts."""
        assert ChoiceSpace(**params).opens_fault_points is opens

    def test_drop_eligibility_filters(self):
        space = ChoiceSpace(
            drop_budget=1,
            droppable_senders=frozenset([2]),
            droppable_payloads=frozenset(["str"]),
        )
        assert space.drop_eligible(2, "payload")
        assert not space.drop_eligible(1, "payload")  # wrong sender
        assert not space.drop_eligible(2, 42)  # wrong payload type
        assert not CLOSED_SPACE.drop_eligible(2, "payload")  # budget 0


class TestChooseSemantics:
    def test_single_option_points_are_not_logged(self):
        source = SeededChoices(CLOSED_SPACE, seed=0)
        assert source.choose("corrupt", (), 1) == 0
        assert source.log == []

    def test_zero_options_rejected(self):
        source = SeededChoices(CLOSED_SPACE, seed=0)
        with pytest.raises(ModelCheckError):
            source.choose("corrupt", (), 0)

    def test_out_of_range_pick_rejected(self):
        class Bad(ChoiceSource):
            def _pick(self, point):
                return point.options  # one past the end

        with pytest.raises(ModelCheckError):
            Bad(CLOSED_SPACE).choose("corrupt", (), 3)

    def test_log_records_point_and_choice(self):
        source = ScriptedChoices(CLOSED_SPACE, [2])
        assert source.choose("corrupt", (7,), 4) == 2
        (entry,) = source.log
        assert entry.point == ChoicePoint(kind="corrupt", coords=(7,), options=4)
        assert entry.chosen == 2
        assert source.decisions == [2]


class TestScriptedChoices:
    def test_non_strict_defaults_to_canonical_past_end(self):
        source = ScriptedChoices(CLOSED_SPACE, [1])
        assert not source.in_free_region
        assert source.choose("a", (), 3) == 1
        assert source.in_free_region
        assert source.choose("b", (), 3) == 0

    def test_strict_raises_when_exhausted(self):
        source = ScriptedChoices(CLOSED_SPACE, [], strict=True)
        with pytest.raises(ModelCheckError):
            source.choose("a", (), 2)

    def test_entry_out_of_range_raises_even_non_strict(self):
        source = ScriptedChoices(CLOSED_SPACE, [5])
        with pytest.raises(ModelCheckError):
            source.choose("a", (), 3)

    def test_seeded_walk_replays_through_script(self):
        space = ChoiceSpace(reorder=True, perm_cap=4)
        seeded = SeededChoices(space, seed=9)
        answers = [seeded.choose("order", (pid, 1), 4) for pid in range(6)]
        scripted = ScriptedChoices(space, seeded.decisions, strict=True)
        replayed = [scripted.choose("order", (pid, 1), 4) for pid in range(6)]
        assert replayed == answers
        assert scripted.log == seeded.log


class TestFaultDecisions:
    def test_closed_space_is_the_identity_verdict(self):
        source = SeededChoices(CLOSED_SPACE, seed=3)
        verdict = source.fault_decision(1, 2, tick=4, seq=0, payload="m")
        assert not verdict.drop
        assert verdict.duplicates == 0
        assert verdict.delay == 0.0
        assert source.log == []

    def test_drop_budget_caps_total_drops(self):
        space = ChoiceSpace(reorder=False, drop_budget=1)
        source = ScriptedChoices(space, [1, 1])  # try to drop twice
        first = source.fault_decision(1, 2, tick=0, seq=0, payload="m")
        assert first.drop and source.drops_used == 1
        # Budget exhausted: the second send offers no drop point at all.
        second = source.fault_decision(1, 3, tick=0, seq=1, payload="m")
        assert not second.drop
        assert source.consumed == 1


def _distinct(envelopes, cap):
    return _distinct_orderings(
        envelopes, cap, SeededChoices(CLOSED_SPACE).envelope_key
    )


class TestDistinctOrderings:
    def test_identity_ordering_first(self):
        envelopes = [_envelope(1), _envelope(2), _envelope(3)]
        orderings = _distinct(envelopes, cap=6)
        assert len(orderings) == 6
        assert orderings[0] == tuple(envelopes)

    def test_duplicate_envelopes_do_not_inflate_options(self):
        dup = _envelope(1)
        envelopes = [dup, dup, _envelope(2)]
        orderings = _distinct(envelopes, cap=6)
        # 3! = 6 raw permutations, but swapping the two equal copies is
        # indistinguishable: only 3 distinct orderings remain.
        assert len(orderings) == 3

    def test_distinct_heads_key_no_payload(self):
        """Envelopes with pairwise distinct ``(sender, sent_at)`` are
        never indistinguishable: the options are the first ``cap``
        permutations, found without keying a single payload."""
        envelopes = [_envelope(1), _envelope(2, tick=2), _envelope(2)]
        keyed = []
        orderings = _distinct_orderings(envelopes, 4, keyed.append)
        assert keyed == []
        assert orderings == list(itertools.permutations(envelopes))[:4]

    def test_a_repeated_head_falls_back_to_payload_keys(self):
        envelopes = [_envelope(1, "a"), _envelope(1, "b"), _envelope(1, "a")]
        keys = []

        def key(envelope):
            keys.append(envelope)
            return (envelope.sender, envelope.sent_at, repr(envelope.payload))

        orderings = _distinct_orderings(envelopes, 6, key)
        assert keys == envelopes
        assert len(orderings) == 3  # 3! / 2! over the two equal copies

    @pytest.mark.parametrize("cap", [1, 2, 6, 24])
    def test_both_paths_agree_with_the_keyed_dedup(self, cap):
        """Every inbox of up to four envelopes over a small pool: the
        options are those of keying every envelope, as before."""
        pool = [_envelope(1, "a"), _envelope(1, "b"), _envelope(2, "a"),
                _envelope(2, "a", tick=2)]
        key = SeededChoices(CLOSED_SPACE).envelope_key
        for size in range(2, 5):
            for inbox in itertools.product(pool, repeat=size):
                envelopes = list(inbox)
                canon = [
                    [key(e) for e in envelopes].index(key(e)) for e in envelopes
                ]
                keyed, seen = [], set()
                for indices in itertools.permutations(range(size)):
                    shape = tuple(canon[i] for i in indices)
                    if shape not in seen:
                        seen.add(shape)
                        keyed.append(tuple(envelopes[i] for i in indices))
                assert _distinct_orderings(envelopes, cap, key) == keyed[:cap]

    def test_cap_truncates(self):
        envelopes = [_envelope(1), _envelope(2), _envelope(3)]
        assert len(_distinct(envelopes, cap=2)) == 2

    def test_payload_reprs_are_memoized_per_run(self):
        source = SeededChoices(CLOSED_SPACE)
        payload = ("vote", 7)
        first = source.payload_repr(payload)
        assert first == repr(payload)
        assert source.payload_repr(payload) is first
        assert source.envelope_key(_envelope(1, payload)) == (
            1, 0, repr(payload)
        )
        # A fresh source (a fresh run) recomputes it.
        assert SeededChoices(CLOSED_SPACE).payload_repr(payload) is not first

    def test_order_inbox_identity_when_closed(self):
        source = SeededChoices(CLOSED_SPACE, seed=0)
        envelopes = [_envelope(2), _envelope(1)]
        assert source.order_inbox(0, 1, envelopes) == envelopes
        assert source.log == []
