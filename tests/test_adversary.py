"""Tests for the adversary framework (behaviors and strategies)."""

import pytest

from repro.adversary.behaviors import (
    DelayedSilence,
    EchoBehavior,
    GarbageSpammer,
    SilentBehavior,
)
from repro.adversary.strategies import (
    CrashStrategy,
    SilentStrategy,
    StaticStrategy,
    apply_strategy,
)
from repro.config import SystemConfig
from repro.errors import ConfigurationError
from repro.runtime.scheduler import Simulation


def chatty(ctx):
    """A correct process that broadcasts every tick for 6 ticks."""
    for _ in range(6):
        ctx.broadcast(("tick", ctx.now))
        yield
    return "done"


class TestBehaviors:
    def run_with(self, config, behaviors):
        simulation = Simulation(config)
        for pid in config.processes:
            if pid in behaviors:
                simulation.add_byzantine(pid, behaviors[pid])
            else:
                simulation.add_process(pid, chatty)
        return simulation.run()

    def test_silent_sends_nothing(self, config5):
        result = self.run_with(config5, {0: SilentBehavior()})
        assert all(r.sender != 0 for r in result.ledger.records)

    def test_echo_reflects(self, config5):
        result = self.run_with(config5, {0: EchoBehavior()})
        echoes = [
            r
            for r in result.ledger.records
            if r.sender == 0 and not r.sender_correct
        ]
        assert echoes  # reflected something back

    def test_echo_reflects_only_to_correct_senders(self, config5):
        """Process 1 is corrupted mid-run after chatting to itself and
        to echo 0: reflecting those payloads would bounce them between
        the two echoes (and back into 1) for the rest of the run."""
        simulation = Simulation(config5)
        simulation.add_byzantine(0, EchoBehavior())
        for pid in config5.processes[1:]:
            simulation.add_process(pid, chatty)
        simulation.schedule_corruption(2, 1, EchoBehavior())
        result = simulation.run()
        byzantine = {0, 1}
        assert not [
            r for r in result.ledger.records
            if r.tick >= 2 and r.sender in byzantine and r.receiver in byzantine
        ]

    def test_delayed_silence_cuts_off(self, config5):
        inner = GarbageSpammer()
        result = self.run_with(config5, {0: DelayedSilence(inner, silent_from=2)})
        byz_ticks = {
            r.tick for r in result.ledger.records if not r.sender_correct
        }
        assert byz_ticks and max(byz_ticks) < 2

    def test_garbage_spammer_interval(self, config5):
        result = self.run_with(config5, {0: GarbageSpammer(every=3)})
        byz_ticks = sorted(
            {r.tick for r in result.ledger.records if not r.sender_correct}
        )
        assert all(t % 3 == 0 for t in byz_ticks)


class TestStrategies:
    def test_static_plan_size_and_behavior(self, config7):
        strategy = StaticStrategy(behavior_factory=lambda pid: SilentBehavior())
        plan = strategy.plan(config7, f=3, seed=1)
        assert plan.f == 3
        assert len(plan.initial) == 3
        assert not plan.scheduled

    def test_silent_strategy_avoids(self, config7):
        strategy = SilentStrategy(avoid=frozenset({0}))
        for seed in range(10):
            plan = strategy.plan(config7, f=3, seed=seed)
            assert 0 not in plan.corrupted

    def test_plans_deterministic_per_seed(self, config7):
        strategy = SilentStrategy()
        assert (
            strategy.plan(config7, 3, seed=5).corrupted
            == strategy.plan(config7, 3, seed=5).corrupted
        )

    def test_plans_vary_across_seeds(self, config7):
        strategy = SilentStrategy()
        plans = {
            tuple(sorted(strategy.plan(config7, 3, seed=s).corrupted))
            for s in range(20)
        }
        assert len(plans) > 1

    def test_f_bounds_enforced(self, config7):
        with pytest.raises(ConfigurationError):
            SilentStrategy().plan(config7, f=4)
        with pytest.raises(ConfigurationError):
            SilentStrategy().plan(config7, f=-1)

    def test_avoid_exhaustion_rejected(self):
        config = SystemConfig(n=3, t=1)
        strategy = SilentStrategy(avoid=frozenset({0, 1, 2}))
        with pytest.raises(ConfigurationError):
            strategy.plan(config, f=1)

    def test_crash_strategy_schedules_mid_run(self, config7):
        strategy = CrashStrategy(first_tick=1, last_tick=3)
        plan = strategy.plan(config7, f=2, seed=0)
        assert not plan.initial
        assert len(plan.scheduled) == 2
        assert all(1 <= tick <= 3 for tick, _, _ in plan.scheduled)
        assert plan.f == 2

    def test_apply_strategy_populates_simulation(self, config7):
        strategy = CrashStrategy(first_tick=1, last_tick=2)
        plan = strategy.plan(config7, f=2, seed=0)
        simulation = Simulation(config7)
        apply_strategy(simulation, plan, lambda pid: chatty)
        result = simulation.run()
        assert result.corrupted == plan.corrupted
        # Crashed processes made no decision; the rest did.
        assert set(result.decisions) == set(config7.processes) - plan.corrupted
