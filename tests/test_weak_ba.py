"""Tests for adaptive weak BA (Algorithms 3 + 4), parametrized over
every backend.  Every registered backend runs the one Algorithm-3 core
(``Backend.run_weak_ba`` is :func:`repro.core.weak_ba.run_weak_ba` for
all of them), so the second parametrization is a dispatch-parity check
on the Protocol API rather than a second implementation — but any
future backend with its own weak BA inherits this whole file for
free."""

import pytest

from repro.adversary.behaviors import GarbageSpammer, SilentBehavior
from repro.adversary.protocol_attacks import (
    WeakBaSplitFinalizeLeader,
    WeakBaTeasingLeader,
)
from repro.config import RunParameters, SystemConfig
from repro.core.validity import ExternalValidity
from repro.core.values import BOTTOM


def string_validity(suite, config):
    return ExternalValidity(lambda v: isinstance(v, str) and not v.startswith("!"))


class TestUnanimousRuns:
    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    def test_failure_free_decides_common_value(self, backend, n):
        config = SystemConfig.with_optimal_resilience(n)
        result = backend.run_weak_ba(
            config, {p: "v" for p in config.processes}, string_validity
        )
        assert result.unanimous_decision() == "v"
        assert not result.fallback_was_used()

    def test_decision_happens_in_first_phase(self, backend, config7):
        result = backend.run_weak_ba(
            config7, {p: "v" for p in config7.processes}, string_validity
        )
        phases = [
            e.get("phase") for e in result.trace.named("wba_decided_in_phase")
        ]
        assert phases and set(phases) == {1}

    def test_exactly_one_non_silent_phase_when_failure_free(
        self, backend, config7
    ):
        result = backend.run_weak_ba(
            config7, {p: "v" for p in config7.processes}, string_validity
        )
        assert result.trace.count("phase_non_silent") == 1


class TestUniqueValidity:
    def test_unanimous_valid_value_wins(self, backend, config7):
        """With a single valid proposal in the run, it is the only
        possible decision (unique validity, Definition 3)."""
        result = backend.run_weak_ba(
            config7, {p: "only" for p in config7.processes}, string_validity
        )
        assert result.unanimous_decision() == "only"

    def test_decision_is_valid_or_bottom(self, backend, config7):
        inputs = {p: f"v{p % 3}" for p in config7.processes}
        result = backend.run_weak_ba(config7, inputs, string_validity)
        decision = result.unanimous_decision()
        assert decision == BOTTOM or (
            isinstance(decision, str) and not decision.startswith("!")
        )

    def test_bottom_implies_multiple_valid_values(self, backend, config7):
        """Contrapositive check across seeds: whenever ⊥ is decided, the
        run indeed contained more than one valid proposal."""
        for seed in range(4):
            inputs = {p: f"v{p % 2}" for p in config7.processes}
            result = backend.run_weak_ba(
                config7, inputs, string_validity, seed=seed
            )
            decision = result.unanimous_decision()
            if decision == BOTTOM:
                assert len(set(inputs.values())) > 1


class TestAdaptivityAndLemma6:
    def test_below_threshold_no_fallback(self, backend, config7):
        """Lemma 6: f < (n-t-1)/2 means the fallback never runs.
        For n=7, t=3 the threshold is 1.5, so f=1 must stay adaptive."""
        byzantine = {3: SilentBehavior()}
        inputs = {p: "v" for p in config7.processes if p not in byzantine}
        result = backend.run_weak_ba(
            config7, inputs, string_validity, byzantine=byzantine
        )
        assert result.unanimous_decision() == "v"
        assert not result.fallback_was_used()

    def test_above_threshold_fallback_runs_and_agrees(self, backend, config7):
        byzantine = {p: SilentBehavior() for p in (1, 3, 5)}
        inputs = {p: "v" for p in config7.processes if p not in byzantine}
        result = backend.run_weak_ba(
            config7, inputs, string_validity, byzantine=byzantine
        )
        assert result.unanimous_decision() == "v"
        assert result.fallback_was_used()

    def test_larger_network_threshold(self, backend):
        """n=13, t=6: threshold (n-t-1)/2 = 3; f=2 adaptive, f=4 not."""
        config = SystemConfig.with_optimal_resilience(13)
        for f, expect_fallback in ((2, False), (4, True)):
            byzantine = {p: SilentBehavior() for p in range(1, f + 1)}
            inputs = {p: "v" for p in config.processes if p not in byzantine}
            result = backend.run_weak_ba(
                config, inputs, string_validity, byzantine=byzantine
            )
            assert result.unanimous_decision() == "v"
            assert result.fallback_was_used() == expect_fallback

    def test_words_adaptive_under_teasing_leaders(self, backend):
        """Byzantine leaders that propose-and-abandon cost O(n) honest
        words each — words must grow with f but stay far below n^2
        (while f is below the fallback threshold)."""
        config = SystemConfig.with_optimal_resilience(13)
        words = {}
        for f in (0, 1, 2):
            byzantine = {
                p: WeakBaTeasingLeader(value="tease") for p in range(1, f + 1)
            }
            inputs = {p: "v" for p in config.processes if p not in byzantine}
            result = backend.run_weak_ba(
                config, inputs, string_validity, byzantine=byzantine
            )
            assert result.unanimous_decision() == "v"
            assert not result.fallback_was_used()
            words[f] = result.correct_words
        assert words[1] > words[0]
        assert words[2] > words[1]


class TestSplitFinalize:
    def test_split_decisions_repaired_by_help_round(self, backend, config7):
        """A Byzantine leader finalizes to a strict subset; the rest
        must catch up via help answers, and everyone agrees."""
        byzantine = {
            1: WeakBaSplitFinalizeLeader(
                value="v", recipients=frozenset({2, 4})
            )
        }
        inputs = {p: "v" for p in config7.processes if p != 1}
        result = backend.run_weak_ba(
            config7, inputs, string_validity, byzantine=byzantine
        )
        assert result.unanimous_decision() == "v"

    def test_split_with_conflicting_later_leaders(self, backend, config7):
        """After a split finalize, later correct leaders propose their
        own values; Lemma 15's commit machinery must keep the finalize
        value unique."""
        byzantine = {
            1: WeakBaSplitFinalizeLeader(
                value="v-split", recipients=frozenset({2})
            )
        }
        inputs = {
            p: f"v{p}" for p in config7.processes if p != 1
        }  # all distinct, all valid
        result = backend.run_weak_ba(
            config7, inputs, string_validity, byzantine=byzantine
        )
        decision = result.unanimous_decision()
        assert decision == "v-split" or decision == BOTTOM or isinstance(decision, str)


class TestRobustness:
    def test_garbage_spam_does_not_break_agreement(self, backend, config7):
        byzantine = {2: GarbageSpammer(), 6: GarbageSpammer(every=2)}
        inputs = {p: "v" for p in config7.processes if p not in byzantine}
        result = backend.run_weak_ba(
            config7, inputs, string_validity, byzantine=byzantine
        )
        assert result.unanimous_decision() == "v"

    def test_pseudocode_phase_count_variant(self, backend, config7):
        """The t+1-phase variant (Algorithm 3 as printed) still reaches
        agreement and termination (DESIGN.md fidelity note 1)."""
        params = RunParameters(num_phases=config7.t + 1)
        result = backend.run_weak_ba(
            config7,
            {p: "v" for p in config7.processes},
            string_validity,
            params=params,
        )
        assert result.unanimous_decision() == "v"

    def test_all_correct_emit_decided(self, backend, config7):
        result = backend.run_weak_ba(
            config7, {p: "v" for p in config7.processes}, string_validity
        )
        deciders = {e.pid for e in result.trace.named("decided")}
        assert deciders == set(config7.processes)
