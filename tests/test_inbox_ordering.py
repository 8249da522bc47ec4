"""Order-independence: protocols survive arbitrary within-tick delivery
order (the synchronous model never promised sender-sorted inboxes).

The shuffle is a pure-reorder :class:`~repro.faults.FaultPlan`: every
inbox of two or more envelopes is permuted by the plan's seeded RNG."""

import pytest

from repro.adversary.behaviors import SilentBehavior
from repro.core.byzantine_broadcast import byzantine_broadcast_protocol
from repro.core.strong_ba import strong_ba_protocol
from repro.core.validity import ExternalValidity
from repro.core.weak_ba import weak_ba_protocol
from repro.errors import ConfigurationError
from repro.faults import FaultPlan
from repro.runtime.scheduler import Simulation

VALIDITY = ExternalValidity(lambda v: isinstance(v, str))


def run_ordered(config, factory, shuffled, seed=0, byzantine=None):
    plan = FaultPlan(seed=seed, reorder_rate=1.0) if shuffled else None
    simulation = Simulation(config, seed=seed, fault_plan=plan)
    byzantine = byzantine or {}
    for pid, behavior in byzantine.items():
        simulation.add_byzantine(pid, behavior)
    for pid in config.processes:
        if pid not in byzantine:
            simulation.add_process(pid, factory)
    return simulation.run()


class TestOrderIndependence:
    def test_invalid_order_rejected(self):
        with pytest.raises(ConfigurationError, match="reorder_rate"):
            FaultPlan(seed=0, reorder_rate=1.5)

    @pytest.mark.parametrize("seed", range(4))
    def test_bb_decision_unchanged_under_shuffle(self, seed, config7):
        factory = lambda ctx: byzantine_broadcast_protocol(ctx, 0, "v")
        sorted_run = run_ordered(config7, factory, False, seed)
        shuffled_run = run_ordered(config7, factory, True, seed)
        assert (
            sorted_run.unanimous_decision()
            == shuffled_run.unanimous_decision()
            == "v"
        )
        assert sorted_run.correct_words == shuffled_run.correct_words

    @pytest.mark.parametrize("seed", range(4))
    def test_weak_ba_safe_under_shuffle_with_failures(self, seed, config7):
        factory = lambda ctx: weak_ba_protocol(ctx, "v", VALIDITY)
        byzantine = {p: SilentBehavior() for p in (1, 4)}
        result = run_ordered(config7, factory, True, seed, byzantine=byzantine)
        assert result.unanimous_decision() == "v"

    @pytest.mark.parametrize("seed", range(4))
    def test_strong_ba_safe_under_shuffle(self, seed, config7):
        factory = lambda ctx: strong_ba_protocol(ctx, 1)
        result = run_ordered(config7, factory, True, seed)
        assert result.unanimous_decision() == 1

    def test_shuffle_is_seed_deterministic(self, config7):
        factory = lambda ctx: byzantine_broadcast_protocol(ctx, 0, "v")

        def fingerprint(seed):
            result = run_ordered(config7, factory, True, seed)
            return [
                (r.tick, r.sender, r.receiver) for r in result.ledger.records
            ]

        assert fingerprint(3) == fingerprint(3)
