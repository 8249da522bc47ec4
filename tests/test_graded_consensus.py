"""Tests for the graded-consensus primitive (validity, graded agreement)."""

import pytest

from repro.adversary.behaviors import SilentBehavior
from repro.adversary.protocol_attacks import GcEquivocator
from repro.config import SystemConfig
from repro.fallback.graded_consensus import GC_ROUNDS, graded_consensus
from repro.runtime.pool import MessagePool
from repro.runtime.scheduler import Simulation


def run_gc(config, inputs, byzantine=None, seed=0):
    byzantine = byzantine or {}
    simulation = Simulation(config, seed=seed)
    members = tuple(config.processes)

    def factory(value):
        def build(ctx):
            def protocol(ctx):
                pool = MessagePool()
                result = yield from graded_consensus(
                    ctx, members, value, "test-gc", 1, pool
                )
                return result

            return protocol(ctx)

        return build

    for pid in config.processes:
        if pid in byzantine:
            simulation.add_byzantine(pid, byzantine[pid])
        else:
            simulation.add_process(pid, factory(inputs[pid]))
    return simulation.run()


class TestValidity:
    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    def test_unanimous_inputs_grade_two(self, n):
        config = SystemConfig.with_optimal_resilience(n)
        result = run_gc(config, {p: "V" for p in config.processes})
        for pid, (value, grade) in result.decisions.items():
            assert value == "V"
            assert grade == 2

    def test_unanimous_with_silent_minority(self, config7):
        byzantine = {1: SilentBehavior(), 4: SilentBehavior(), 6: SilentBehavior()}
        inputs = {p: "V" for p in config7.processes if p not in byzantine}
        result = run_gc(config7, inputs, byzantine)
        for value, grade in result.decisions.values():
            assert value == "V"
            assert grade == 2


class TestGradedAgreement:
    def test_mixed_inputs_respect_graded_agreement(self, config7):
        inputs = {p: ("A" if p < 4 else "B") for p in config7.processes}
        result = run_gc(config7, inputs)
        self._check_graded_agreement(result.decisions.values())

    def test_equivocating_claimer(self, config7):
        members = tuple(config7.processes)
        byzantine = {
            3: GcEquivocator(
                session="test-gc", members=members, value_a="A", value_b="B"
            )
        }
        inputs = {p: "V" for p in config7.processes if p != 3}
        result = run_gc(config7, inputs, byzantine)
        # All honest share the input value, so equivocation cannot stop
        # grade 2 here: the equivocator alone cannot certify "A" or "B".
        for value, grade in result.decisions.values():
            assert value == "V"
            assert grade == 2
        self._check_graded_agreement(result.decisions.values())

    def test_equivocation_with_split_honest_inputs(self, config7):
        members = tuple(config7.processes)
        byzantine = {
            0: GcEquivocator(
                session="test-gc", members=members, value_a="A", value_b="B"
            )
        }
        inputs = {p: ("A" if p % 2 else "B") for p in config7.processes if p != 0}
        result = run_gc(config7, inputs, byzantine, seed=3)
        self._check_graded_agreement(result.decisions.values())

    @staticmethod
    def _check_graded_agreement(outputs):
        """If any output has grade 2 on v, every output is (v, >=1)."""
        grade2_values = {v for v, g in outputs if g == 2}
        assert len(grade2_values) <= 1
        if grade2_values:
            (v,) = grade2_values
            for value, grade in outputs:
                assert grade >= 1
                assert value == v


class TestStructure:
    def test_round_count_constant(self):
        assert GC_ROUNDS == 4

    def test_word_complexity_quadratic(self):
        words = {}
        for n in (5, 9, 13):
            config = SystemConfig.with_optimal_resilience(n)
            result = run_gc(config, {p: "V" for p in config.processes})
            words[n] = result.correct_words
        # Quadratic growth: words/n^2 roughly flat, words/n clearly growing.
        assert words[13] / 13**2 < 2 * words[5] / 5**2
        assert words[13] / 13 > 1.5 * words[5] / 5

    def test_ignores_list_twins_of_tuple_certificates(self, config7):
        """A Byzantine member rushes every support and lock certificate
        back out with its tuple payload swapped for the equal-encoding
        list; correct members reject the twins and still grade 2."""
        from dataclasses import replace

        from repro.fallback.graded_consensus import GcLockCert, GcSupport

        class TwinRelay:
            def __init__(self):
                self.relayed = 0

            def step(self, api):
                for envelope in api.rushed:
                    payload = envelope.payload
                    if isinstance(payload, (GcSupport, GcLockCert)):
                        cert = payload.certificate
                        twin = replace(cert, payload=list(cert.payload))
                        api.broadcast(replace(payload, certificate=twin))
                        self.relayed += 1

        relay = TwinRelay()
        value = ("V", 1)
        inputs = {p: value for p in config7.processes if p != 2}
        result = run_gc(config7, inputs, {2: relay})
        assert relay.relayed > 0
        for decided, grade in result.decisions.values():
            assert decided == value
            assert grade == 2

    def test_ignores_garbage_claims(self, config7):
        from repro.adversary.behaviors import GarbageSpammer

        byzantine = {2: GarbageSpammer()}
        inputs = {p: "V" for p in config7.processes if p != 2}
        result = run_gc(config7, inputs, byzantine)
        for value, grade in result.decisions.values():
            assert value == "V"
            assert grade == 2
