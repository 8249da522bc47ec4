"""Tests for the certified-input adaptive strong BA
(:mod:`repro.core.adaptive_strong_ba`), parametrized over every backend
that builds it (cohen's Section-3 extension with one certificate phase
per weak-BA phase, civit's multivalued row with ``t + 1`` views).  Both
rows satisfy the same Definition-2 contract — strong unanimity with ⊥
permitted in mixed runs — and emit the same trace events, so the
bodies are shared verbatim; the shared ``CertifiedValue`` collapse is
tested once."""

import pytest

from repro.adversary.behaviors import GarbageSpammer, SilentBehavior
from repro.config import SystemConfig
from repro.core.validity import CertifiedValue
from repro.core.values import BOTTOM


class TestStrongUnanimity:
    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    def test_unanimous_failure_free(self, backend, n):
        config = SystemConfig.with_optimal_resilience(n)
        result = backend.run_adaptive_strong_ba(
            config, {p: "V" for p in config.processes}
        )
        assert result.unanimous_decision() == "V"
        assert not result.fallback_was_used()

    @pytest.mark.parametrize("f", [1, 2, 3])
    def test_unanimous_with_silent_failures(self, backend, f, config7):
        byzantine = {p: SilentBehavior() for p in range(1, f + 1)}
        inputs = {p: "V" for p in config7.processes if p not in byzantine}
        result = backend.run_adaptive_strong_ba(
            config7, inputs, byzantine=byzantine
        )
        assert result.unanimous_decision() == "V"

    def test_multivalued_inputs_supported(self, backend, config7):
        """Unlike the binary strong BA, the extension is multi-valued."""
        result = backend.run_adaptive_strong_ba(
            config7,
            {p: ("big", "structured", p < 100) for p in config7.processes},
        )
        assert result.unanimous_decision() == ("big", "structured", True)


class TestNonUnanimousRuns:
    def test_majority_value_can_win(self, backend, config7):
        """t+1 processes sharing a value can certify it."""
        inputs = {p: ("A" if p < 5 else "B") for p in config7.processes}
        result = backend.run_adaptive_strong_ba(config7, inputs)
        assert result.unanimous_decision() in ("A", BOTTOM)

    def test_all_distinct_inputs_decide_bottom(self, backend, config7):
        """No value reaches t+1 shares; Definition 2 permits ⊥."""
        inputs = {p: f"v{p}" for p in config7.processes}
        result = backend.run_adaptive_strong_ba(config7, inputs)
        assert result.unanimous_decision() == BOTTOM

    def test_byzantine_cannot_certify_its_own_value(self, backend, config7):
        """Even a full coalition (t processes) is one share short of an
        input certificate, so a value no correct process proposed can
        never be decided — the heart of the certification observation
        both stacks rest on."""
        byzantine = {p: GarbageSpammer() for p in (1, 3, 5)}
        inputs = {
            p: "honest" for p in config7.processes if p not in byzantine
        }
        result = backend.run_adaptive_strong_ba(
            config7, inputs, byzantine=byzantine
        )
        assert result.unanimous_decision() in ("honest", BOTTOM)


class TestAdaptivity:
    def test_unanimous_runs_are_adaptive(self, backend):
        """O(n(f+1)) in the unanimous case: words/n stays flat in n."""
        words = {}
        for n in (5, 9, 17):
            config = SystemConfig.with_optimal_resilience(n)
            result = backend.run_adaptive_strong_ba(
                config, {p: "V" for p in config.processes}
            )
            assert not result.fallback_was_used()
            words[n] = result.correct_words
        assert words[17] / 17 < 2 * words[5] / 5

    def test_one_non_silent_cert_phase_when_unanimous(self, backend, config7):
        result = backend.run_adaptive_strong_ba(
            config7, {p: "V" for p in config7.processes}
        )
        assert result.trace.count(backend.asba_non_silent_event) == 1

    def test_certificates_spread_to_everyone(self, backend, config7):
        result = backend.run_adaptive_strong_ba(
            config7, {p: "V" for p in config7.processes}
        )
        certified = {
            e.pid for e in result.trace.named(backend.asba_certified_event)
        }
        assert certified == set(config7.processes)


class TestCertifiedValueCollapse:
    """The load-bearing design point: certificates ride outside
    equality, so adversarially-minted certificate variants for one
    value cannot masquerade as distinct weak-BA values."""

    def test_equality_ignores_certificate(self):
        a = CertifiedValue(1).with_certificate("cert-A")
        b = CertifiedValue(1).with_certificate("cert-B")
        assert a == b
        assert hash(a) == hash(b)
        assert a.certificate != b.certificate

    def test_distinct_values_stay_distinct(self):
        assert CertifiedValue(0) != CertifiedValue(1)

    def test_words_bill_value_plus_certificate(self):
        assert CertifiedValue("anything").words() == 2
