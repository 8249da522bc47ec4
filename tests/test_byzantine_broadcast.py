"""Tests for adaptive Byzantine Broadcast (Algorithms 1 + 2)."""

import pytest

from repro.adversary.behaviors import (
    EquivocatingSender,
    GarbageSpammer,
    SilentBehavior,
)
from repro.adversary.protocol_attacks import BbVettingHelpSpammer
from repro.config import SystemConfig
from repro.core.byzantine_broadcast import BbSenderValue, run_byzantine_broadcast
from repro.core.values import BOTTOM


class TestValidity:
    @pytest.mark.parametrize("n", [3, 5, 7, 9, 13])
    def test_correct_sender_value_decided(self, n):
        config = SystemConfig.with_optimal_resilience(n)
        result = run_byzantine_broadcast(config, sender=0, value="payload")
        assert result.unanimous_decision() == "payload"

    def test_correct_sender_with_failures(self, config7):
        byzantine = {2: SilentBehavior(), 5: SilentBehavior()}
        result = run_byzantine_broadcast(
            config7, sender=0, value="payload", byzantine=byzantine
        )
        assert result.unanimous_decision() == "payload"

    def test_correct_sender_with_max_failures(self, config7):
        byzantine = {p: SilentBehavior() for p in (1, 3, 5)}
        result = run_byzantine_broadcast(
            config7, sender=0, value="payload", byzantine=byzantine
        )
        assert result.unanimous_decision() == "payload"

    def test_non_default_sender(self, config7):
        result = run_byzantine_broadcast(config7, sender=4, value="from-4")
        assert result.unanimous_decision() == "from-4"

    def test_arbitrary_value_types(self, config7):
        for value in (42, ("tuple", 1), b"bytes", None):
            result = run_byzantine_broadcast(config7, sender=0, value=value)
            assert result.unanimous_decision() == value


class TestByzantineSender:
    def test_silent_sender_decides_bottom(self, config7):
        result = run_byzantine_broadcast(
            config7, sender=0, value=None, byzantine={0: SilentBehavior()}
        )
        assert result.unanimous_decision() == BOTTOM

    @pytest.mark.parametrize("seed", range(3))
    def test_equivocating_sender_agreement(self, seed, config7):
        byzantine = {
            0: EquivocatingSender(
                value_a="A",
                value_b="B",
                make_payload=lambda signed, api: BbSenderValue(
                    session="bb", signed=signed
                ),
            )
        }
        result = run_byzantine_broadcast(
            config7, sender=0, value=None, byzantine=byzantine, seed=seed
        )
        assert result.unanimous_decision() in ("A", "B", BOTTOM)

    def test_sender_sending_to_one_process_only(self, config7):
        """A sender that whispers to a single process: the vetting
        phases must spread the value or produce an idk certificate."""

        class Whisperer:
            def step(self, api):
                if api.now == 0:
                    from repro.crypto.signatures import sign_value

                    api.send(
                        3,
                        BbSenderValue(
                            session="bb",
                            signed=sign_value(api.signer, "whisper"),
                        ),
                    )

        result = run_byzantine_broadcast(
            config7, sender=0, value=None, byzantine={0: Whisperer()}
        )
        assert result.unanimous_decision() in ("whisper", BOTTOM)


class TestAdaptivity:
    def test_failure_free_has_no_non_silent_vetting_phase(self, config7):
        result = run_byzantine_broadcast(config7, sender=0, value="v")
        assert result.trace.count("bb_phase_non_silent") == 0
        assert not result.fallback_was_used()

    def test_silent_sender_one_non_silent_phase_per_uninformed_leader(
        self, config7
    ):
        """With a silent sender, the first correct leader's phase mints
        the idk certificate; every later correct leader holds it and
        stays silent."""
        result = run_byzantine_broadcast(
            config7, sender=0, value=None, byzantine={0: SilentBehavior()}
        )
        assert result.trace.count("bb_phase_non_silent") == 1

    def test_help_spammers_raise_cost_linearly(self):
        config = SystemConfig.with_optimal_resilience(13)
        words = {}
        for f in (0, 1, 2):
            byzantine = {p: BbVettingHelpSpammer() for p in range(1, f + 1)}
            result = run_byzantine_broadcast(
                config, sender=0, value="v", byzantine=byzantine
            )
            assert result.unanimous_decision() == "v"
            words[f] = result.correct_words
        assert words[0] < words[1] < words[2]
        # Still adaptive: far below the quadratic fallback regime.
        assert words[2] < config.n**2

    def test_words_linear_in_n_when_failure_free(self):
        words = {}
        for n in (5, 9, 17):
            config = SystemConfig.with_optimal_resilience(n)
            result = run_byzantine_broadcast(config, sender=0, value="v")
            words[n] = result.correct_words
        assert words[17] / 17 < 2 * words[5] / 5


class TestRobustness:
    def test_garbage_spammers(self, config7):
        byzantine = {1: GarbageSpammer(), 4: GarbageSpammer(every=3)}
        result = run_byzantine_broadcast(
            config7, sender=0, value="v", byzantine=byzantine
        )
        assert result.unanimous_decision() == "v"

    def test_composition_scopes_recorded(self, config7):
        """Figure 1's structure: BB words come from bb and bb/weak_ba
        scopes."""
        result = run_byzantine_broadcast(config7, sender=0, value="v")
        scopes = set(result.ledger.words_by_scope())
        assert any(s.startswith("bb") for s in scopes)
        assert any("weak_ba" in s for s in scopes)
