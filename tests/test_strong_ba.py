"""Tests for binary strong BA, parametrized over every backend.

One test body per property: the ``backend`` fixture supplies the stack
(cohen's Algorithm 5, civit's certification views + shared core) and
the backend's capability flags supply the expectations where the papers
genuinely differ — a silent leader forces Algorithm 5 into its fallback
but leaves the civit stack adaptive, so those assertions dispatch on
``backend.silent_leader_forces_fallback`` /
``backend.strong_ba_degrades_quadratically`` instead of being copied
into per-backend files.
"""

import pytest

from repro.adversary.behaviors import GarbageSpammer, SilentBehavior
from repro.config import SystemConfig
from repro.errors import ConfigurationError


class TestStrongUnanimity:
    @pytest.mark.parametrize("n", [3, 5, 7, 9, 13])
    @pytest.mark.parametrize("value", [0, 1])
    def test_unanimous_failure_free(self, backend, n, value):
        config = SystemConfig.with_optimal_resilience(n)
        result = backend.run_strong_ba(
            config, {p: value for p in config.processes}
        )
        assert result.unanimous_decision() == value
        assert not result.fallback_was_used()

    @pytest.mark.parametrize("f", [1, 2, 3])
    def test_unanimous_with_silent_failures(self, backend, f, config7):
        byzantine = {p: SilentBehavior() for p in range(1, f + 1)}
        inputs = {p: 1 for p in config7.processes if p not in byzantine}
        result = backend.run_strong_ba(config7, inputs, byzantine=byzantine)
        assert result.unanimous_decision() == 1

    def test_unanimous_with_silent_leader(self, backend, config7):
        """Coordinator p_0 crashed.  Algorithm 5's fixed leader makes
        this fatal for the fast path (fallback must deliver); the civit
        stack's rotating certifiers shrug it off (f=1 is below the
        fallback threshold (n-t-1)/2 = 1.5)."""
        byzantine = {0: SilentBehavior()}
        inputs = {p: 0 for p in config7.processes if p != 0}
        result = backend.run_strong_ba(config7, inputs, byzantine=byzantine)
        assert result.unanimous_decision() == 0
        assert (
            result.fallback_was_used()
            == backend.silent_leader_forces_fallback
        )


class TestAgreement:
    @pytest.mark.parametrize("seed", range(3))
    def test_mixed_inputs_agree_on_proposed_value(self, backend, seed, config7):
        inputs = {p: p % 2 for p in config7.processes}
        result = backend.run_strong_ba(config7, inputs, seed=seed)
        assert result.unanimous_decision() in (0, 1)

    def test_mixed_inputs_with_failures(self, backend, config7):
        byzantine = {2: SilentBehavior(), 5: SilentBehavior()}
        inputs = {p: p % 2 for p in config7.processes if p not in byzantine}
        result = backend.run_strong_ba(config7, inputs, byzantine=byzantine)
        assert result.unanimous_decision() in (0, 1)

    def test_garbage_spam(self, backend, config7):
        byzantine = {3: GarbageSpammer()}
        inputs = {p: 1 for p in config7.processes if p != 3}
        result = backend.run_strong_ba(config7, inputs, byzantine=byzantine)
        assert result.unanimous_decision() == 1


class TestWordComplexity:
    """Lemma 8 for cohen; the adaptive envelope for civit — each stack
    is held to its own published budget (``strong_ba_word_budget``)."""

    @pytest.mark.parametrize("n", [3, 5, 7, 9, 13])
    def test_no_fallback_when_failure_free(self, backend, n):
        config = SystemConfig.with_optimal_resilience(n)
        result = backend.run_strong_ba(
            config, {p: p % 2 for p in config.processes}
        )
        assert not result.fallback_was_used()

    def test_linear_words_failure_free(self, backend):
        words = {}
        for n in (5, 9, 17, 33):
            config = SystemConfig.with_optimal_resilience(n)
            result = backend.run_strong_ba(
                config, {p: 1 for p in config.processes}
            )
            words[n] = result.correct_words
        # words/n flat within a small band across a 6.6x range of n.
        assert words[33] / 33 < 1.5 * words[5] / 5

    def test_failure_free_tick_bound(self, backend, config7):
        result = backend.run_strong_ba(
            config7, {p: 1 for p in config7.processes}
        )
        assert result.ticks <= backend.strong_ba_tick_bound(config7)

    def test_word_bill_with_one_failure(self, backend, config7):
        """The headline differential: one silent process pushes
        Algorithm 5 to its quadratic fallback (the n-of-n decide
        certificate is unreachable), while the civit stack stays inside
        its linear O(n(f+1)) envelope."""
        failure_free = backend.run_strong_ba(
            config7, {p: 1 for p in config7.processes}
        )
        byzantine = {0: SilentBehavior()}
        degraded = backend.run_strong_ba(
            config7,
            {p: 1 for p in config7.processes if p != 0},
            byzantine=byzantine,
        )
        assert degraded.correct_words <= backend.strong_ba_word_budget(
            config7, 1
        )
        if backend.strong_ba_degrades_quadratically:
            assert degraded.correct_words > 5 * failure_free.correct_words
        else:
            assert degraded.correct_words <= 3 * failure_free.correct_words


class TestInputValidation:
    def test_non_binary_input_rejected(self, backend, config7):
        with pytest.raises(ConfigurationError):
            backend.run_strong_ba(config7, {p: 2 for p in config7.processes})
