"""Tests for the quadratic fallback BA (agreement, validity, complexity)."""

import pytest

from repro.adversary.behaviors import EchoBehavior, GarbageSpammer, SilentBehavior
from repro.config import SystemConfig
from repro.fallback.recursive_ba import ba_rounds, run_fallback_ba


class TestStrongUnanimity:
    @pytest.mark.parametrize("n", [1, 3, 5, 7, 9, 11, 13])
    def test_unanimous_failure_free(self, n):
        config = SystemConfig.with_optimal_resilience(n)
        result = run_fallback_ba(config, {p: "V" for p in config.processes})
        assert result.unanimous_decision() == "V"

    @pytest.mark.parametrize("f", [1, 2, 3])
    def test_unanimous_with_silent_failures(self, f, config7):
        byzantine = {p: SilentBehavior() for p in range(f)}
        inputs = {p: "V" for p in config7.processes if p not in byzantine}
        result = run_fallback_ba(config7, inputs, byzantine=byzantine)
        assert result.unanimous_decision() == "V"

    def test_unanimous_under_garbage(self, config7):
        byzantine = {1: GarbageSpammer(), 5: EchoBehavior()}
        inputs = {p: "V" for p in config7.processes if p not in byzantine}
        result = run_fallback_ba(config7, inputs, byzantine=byzantine)
        assert result.unanimous_decision() == "V"


class TestAgreement:
    @pytest.mark.parametrize("seed", range(5))
    def test_mixed_inputs_agree(self, seed, config7):
        inputs = {p: f"v{(p + seed) % 3}" for p in config7.processes}
        result = run_fallback_ba(config7, inputs, seed=seed)
        decision = result.unanimous_decision()
        assert decision in set(inputs.values())

    @pytest.mark.parametrize("seed", range(3))
    def test_mixed_inputs_with_max_failures(self, seed, config7):
        byzantine = {p: SilentBehavior() for p in (0, 2, 6)}
        inputs = {
            p: f"v{p % 2}" for p in config7.processes if p not in byzantine
        }
        result = run_fallback_ba(config7, inputs, byzantine=byzantine, seed=seed)
        result.unanimous_decision()

    def test_binary_inputs_decide_proposed_value(self, config5):
        inputs = {0: 1, 1: 0, 2: 1, 3: 0, 4: 1}
        result = run_fallback_ba(config5, inputs)
        assert result.unanimous_decision() in (0, 1)


class TestRoundSchedule:
    def test_base_cases(self):
        assert ba_rounds(1) == 0
        assert ba_rounds(2) == 1

    def test_recursion_formula(self):
        # ba_rounds(m) = 2*GC + ba(ceil(m/2)) + ba(floor(m/2)) + 2
        for m in (3, 5, 8, 13, 21):
            half_a = (m + 1) // 2
            half_b = m - half_a
            assert ba_rounds(m) == 10 + ba_rounds(half_a) + ba_rounds(half_b)

    def test_rounds_linear_in_n(self):
        assert ba_rounds(64) < 30 * 64

    def test_simulated_ticks_match_schedule(self, config7):
        result = run_fallback_ba(config7, {p: "V" for p in config7.processes})
        assert result.ticks == ba_rounds(7) + 1


class TestComplexity:
    def test_words_quadratic_in_n(self):
        words = {}
        for n in (5, 9, 17):
            config = SystemConfig.with_optimal_resilience(n)
            result = run_fallback_ba(config, {p: "V" for p in config.processes})
            words[n] = result.correct_words
        ratio_small = words[5] / 5**2
        ratio_large = words[17] / 17**2
        # words/n^2 stays within a small constant band.
        assert ratio_large < 3 * ratio_small
        # ... while words/n clearly grows (not linear).
        assert words[17] / 17 > 2 * words[5] / 5

    def test_fallback_round_ticks_two_works(self, config7):
        """The delta' = 2*delta configuration (as invoked by weak BA)."""
        from repro.fallback.recursive_ba import fallback_ba
        from repro.runtime.scheduler import Simulation

        simulation = Simulation(config7, seed=0)
        for pid in config7.processes:
            simulation.add_process(
                pid, lambda ctx: fallback_ba(ctx, "V", round_ticks=2)
            )
        result = simulation.run()
        assert result.unanimous_decision() == "V"

    def test_skewed_starts_still_agree(self, config7):
        """Members entering up to one tick apart (Lemma 18's scenario)."""
        from repro.fallback.recursive_ba import fallback_ba
        from repro.runtime.scheduler import Simulation

        simulation = Simulation(config7, seed=0)

        def delayed(ctx):
            def protocol(ctx):
                if ctx.pid % 2 == 0:
                    yield  # enter one tick late
                result = yield from fallback_ba(
                    ctx, f"v{ctx.pid % 2}", round_ticks=2
                )
                return result

            return protocol(ctx)

        for pid in config7.processes:
            simulation.add_process(pid, delayed)
        result = simulation.run()
        result.unanimous_decision()
