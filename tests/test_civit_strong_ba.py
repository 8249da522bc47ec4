"""Civit-backend-specific depth tests.

Everything a *shared* test body can express lives in the
backend-parametrized suites (``test_strong_ba.py``,
``test_adaptive_strong_ba.py``, ``test_conformance.py``).  This file
covers what is unique to the certification-view stack: view rotation
and silence, the ``CertifiedValue`` collapse that closes the
certificate-multiplicity route to ⊥, the certificate-equivocation
attacks at the paper quorum, and the backend's integration seams
(replay builders, the MC scenario, sorted unknown-protocol
listing)."""

import pytest

from repro.adversary.behaviors import SilentBehavior
from repro.core.adaptive_strong_ba import BINARY_VALUES
from repro.errors import ConfigurationError, RecoveryError
from repro.mc.explore import explore_exhaustive
from repro.mc.scenario import make_scenario
from repro.protocols import get_backend
from repro.recovery.replay import factory_from_meta


class TestCertificationViews:
    def test_unanimous_run_uses_exactly_one_view(self, config7):
        civit = get_backend("civit")
        result = civit.run_strong_ba(config7, {p: 1 for p in config7.processes})
        assert result.trace.count(civit.asba_non_silent_event) == 1
        certified = {e.pid for e in result.trace.named(civit.asba_certified_event)}
        assert certified == set(config7.processes)

    def test_silent_first_certifier_rotates_to_next_view(self, config7):
        """p0 is the view-1 certifier; silencing it must cost exactly
        one extra non-silent view, not the fallback."""
        byzantine = {0: SilentBehavior()}
        inputs = {p: 1 for p in config7.processes if p != 0}
        civit = get_backend("civit")
        result = civit.run_strong_ba(config7, inputs, byzantine=byzantine)
        assert result.unanimous_decision() == 1
        assert not result.fallback_was_used()
        assert result.trace.count(civit.asba_non_silent_event) <= 2

    def test_extra_views_do_not_change_the_outcome(self):
        """``num_views`` beyond the paper's t+1 is pure slack: every
        schedule still verifies (the scenario layer exposes the knob)."""
        for num_views in (2, 4):
            scenario = make_scenario(
                "civit-strong-ba",
                n=4,
                num_phases=1,
                num_views=num_views,
                adversary="none",
                input_mode="unanimous",
                max_ticks=60,
                reorder=False,
            )
            outcome = explore_exhaustive(scenario, max_runs=8)
            assert outcome.complete and outcome.ok

    def test_binary_never_decides_bottom(self, config7):
        """The ⊥→0 resolution plus certificate collapse: every seeded
        binary split still lands on a proposed value."""
        for seed in range(6):
            inputs = {p: p % 2 for p in config7.processes}
            result = get_backend("civit").run_strong_ba(config7, inputs, seed=seed)
            assert result.unanimous_decision() in BINARY_VALUES


class TestAttacksAtPaperQuorum:
    def test_equivocating_certifier_cannot_break_agreement(self):
        scenario = make_scenario(
            "civit-strong-ba",
            n=4,
            num_phases=1,
            adversary="equivocating-certifier",
            max_ticks=30,
            reorder=False,
        )
        outcome = explore_exhaustive(scenario, max_runs=64)
        assert outcome.complete
        assert outcome.ok, outcome.counterexamples[0].summary

    def test_non_binary_strong_input_rejected_up_front(self, config7):
        with pytest.raises(ConfigurationError, match="binary"):
            get_backend("civit").run_strong_ba(
                config7, {p: "x" for p in config7.processes}
            )

    def test_adaptive_variant_accepts_arbitrary_values(self, config5):
        result = get_backend("civit").run_adaptive_strong_ba(
            config5, {p: ("tuple", p < 99) for p in config5.processes}
        )
        assert result.unanimous_decision() == ("tuple", True)


class TestIntegrationSeams:
    def test_replay_builder_rebuilds_from_meta(self):
        factory = factory_from_meta(
            {
                "protocol": "civit_strong_ba",
                "input": 1,
                "session": "civit",
            }
        )
        assert callable(factory)

    def test_unknown_protocol_error_lists_backends_sorted(self):
        with pytest.raises(RecoveryError) as err:
            factory_from_meta({"protocol": "no-such-protocol"})
        message = str(err.value)
        assert "'no-such-protocol'" in message
        listed = message.split("known: ")[1]
        assert "civit_strong_ba" in listed
        assert "civit_adaptive_strong_ba" in listed
        # The listing is the deterministically sorted registry.
        names = [n.strip("[]' ") for n in listed.rstrip(")").split(",")]
        assert names == sorted(names)

    def test_missing_protocol_key_is_a_distinct_error(self):
        with pytest.raises(RecoveryError, match="names no protocol"):
            factory_from_meta({})

    def test_mc_scenario_lazily_registered(self):
        scenario = make_scenario("civit-strong-ba", n=4, num_phases=1)
        assert scenario.name == "civit-strong-ba"
