"""Integration tests: full-stack composition, adaptive corruption,
layer attribution (Figure 1), and cross-protocol consistency."""

import pytest

from repro.adversary.behaviors import SilentBehavior
from repro.adversary.strategies import CrashStrategy, apply_strategy
from repro.config import SystemConfig
from repro.core.byzantine_broadcast import (
    byzantine_broadcast_protocol,
    run_byzantine_broadcast,
)
from repro.core.strong_ba import run_strong_ba
from repro.core.validity import ExternalValidity
from repro.runtime.scheduler import Simulation


class TestComposition:
    """Figure 1: BB sits on weak BA, which sits on the fallback; the
    ledger's scope attribution must reflect the actual nesting."""

    def test_bb_without_fallback_has_two_layers(self, config7):
        result = run_byzantine_broadcast(config7, sender=0, value="v")
        scopes = set(result.ledger.words_by_scope())
        assert scopes == {"bb", "bb/weak_ba"}

    def test_bb_with_fallback_has_three_layers(self, config7):
        byzantine = {p: SilentBehavior() for p in (1, 3, 5)}
        result = run_byzantine_broadcast(
            config7, sender=0, value="v", byzantine=byzantine
        )
        scopes = set(result.ledger.words_by_scope())
        assert "bb/weak_ba/fallback" in scopes

    def test_fallback_dominates_words_when_used(self, config7):
        byzantine = {p: SilentBehavior() for p in (1, 3, 5)}
        result = run_byzantine_broadcast(
            config7, sender=0, value="v", byzantine=byzantine
        )
        by_scope = result.ledger.words_by_scope()
        fallback_words = sum(
            words for scope, words in by_scope.items() if "fallback" in scope
        )
        assert fallback_words > result.correct_words / 2

    def test_strong_ba_fallback_scope(self, config7):
        byzantine = {0: SilentBehavior()}
        result = run_strong_ba(
            config7,
            {p: 1 for p in config7.processes if p != 0},
            byzantine=byzantine,
        )
        scopes = set(result.ledger.words_by_scope())
        assert "strong_ba" in scopes
        assert "strong_ba/fallback" in scopes


class TestAdaptiveCorruption:
    """The paper's adversary corrupts processes *during* the run."""

    def test_bb_survives_mid_run_crashes(self, config7):
        plan = CrashStrategy(
            first_tick=2, last_tick=10, avoid=frozenset({0})
        ).plan(config7, f=2, seed=3)
        simulation = Simulation(config7, seed=3)
        apply_strategy(
            simulation,
            plan,
            lambda pid: lambda ctx: byzantine_broadcast_protocol(ctx, 0, "v"),
        )
        result = simulation.run()
        assert result.unanimous_decision() == "v"

    def test_sender_crash_after_dissemination_still_decides_value(
        self, config7
    ):
        """The sender crashes right after round 1: every correct process
        already holds ⟨v⟩_sender, so the value must still win."""
        simulation = Simulation(config7, seed=0)
        for pid in config7.processes:
            simulation.add_process(
                pid, lambda ctx: byzantine_broadcast_protocol(ctx, 0, "v")
            )
        simulation.schedule_corruption(1, 0, SilentBehavior())
        result = simulation.run()
        assert result.unanimous_decision() == "v"

    @pytest.mark.parametrize("crash_tick", [0, 1, 3, 7, 15])
    def test_weak_ba_with_crash_at_any_point(self, crash_tick, config7):
        validity = ExternalValidity(lambda v: isinstance(v, str))
        simulation = Simulation(config7, seed=1)
        from repro.core.weak_ba import weak_ba_protocol

        for pid in config7.processes:
            simulation.add_process(
                pid, lambda ctx: weak_ba_protocol(ctx, "v", validity)
            )
        simulation.schedule_corruption(crash_tick, 2, SilentBehavior())
        result = simulation.run()
        assert result.unanimous_decision() == "v"


class TestCrossProtocolConsistency:
    def test_bb_and_dolev_strong_agree_on_correct_sender(self, config7):
        from repro.fallback.dolev_strong import run_dolev_strong

        adaptive = run_byzantine_broadcast(config7, sender=0, value="same")
        classic = run_dolev_strong(config7, sender=0, value="same")
        assert (
            adaptive.unanimous_decision()
            == classic.unanimous_decision()
            == "same"
        )

    def test_adaptive_bb_cheaper_than_dolev_strong(self, config7):
        """The paper's point: same guarantees, far fewer words."""
        from repro.fallback.dolev_strong import run_dolev_strong

        adaptive = run_byzantine_broadcast(config7, sender=0, value="v")
        classic = run_dolev_strong(config7, sender=0, value="v")
        assert adaptive.correct_words < classic.correct_words

    def test_weak_ba_as_strong_ba_via_signed_inputs(self, config7):
        """Section 3's observation: with the signed-inputs predicate,
        unique validity collapses to strong unanimity on the underlying
        values.  Simulate by having every process propose a t+1-signed
        input certificate for the same value."""
        from repro.core.validity import (
            CertifiedValidity,
            CertifiedValue,
            input_label,
            input_statement,
        )

        simulation = Simulation(config7, seed=0)
        suite = simulation.suite
        label = input_label("asba")
        partials = [
            suite.partial_for_certificate(
                pid, label, config7.small_quorum, input_statement("agreed")
            )
            for pid in range(config7.small_quorum)
        ]
        certificate = suite.combine_certificate(
            label, config7.small_quorum, input_statement("agreed"), partials
        )
        proposal = CertifiedValue("agreed").with_certificate(certificate)
        validity = CertifiedValidity(suite, config7, "asba")
        from repro.core.weak_ba import weak_ba_protocol

        for pid in config7.processes:
            simulation.add_process(
                pid,
                lambda ctx: weak_ba_protocol(ctx, proposal, validity),
            )
        result = simulation.run()
        decision = result.unanimous_decision()
        assert decision == proposal
        assert decision.certificate.payload == ("input", "agreed")


class TestScaleSweep:
    @pytest.mark.parametrize("n", [3, 5, 9, 15, 21])
    def test_bb_correct_across_sizes(self, n):
        config = SystemConfig.with_optimal_resilience(n)
        result = run_byzantine_broadcast(config, sender=0, value=("v", n))
        assert result.unanimous_decision() == ("v", n)

    def test_bb_with_half_t_failures_at_scale(self):
        config = SystemConfig.with_optimal_resilience(15)
        byzantine = {p: SilentBehavior() for p in (1, 4, 8)}
        result = run_byzantine_broadcast(
            config, sender=0, value="v", byzantine=byzantine
        )
        assert result.unanimous_decision() == "v"
