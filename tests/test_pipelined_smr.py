"""Tests for the concurrency combinator and pipelined SMR."""

import gc

import pytest

from repro.adversary.behaviors import SilentBehavior
from repro.apps.clients import ClientWorkload, run_batched_smr
from repro.apps.pipelined import run_pipelined_smr
from repro.config import RunParameters
from repro.core.byzantine_broadcast import byzantine_broadcast_protocol
from repro.faults import FaultPlan, ProcessCrash
from repro.recovery import RecoveryManager
from repro.runtime.concurrency import join
from repro.runtime.scheduler import Simulation


def workload(i, replicas):
    return ClientWorkload(
        client=f"c{i}", ops=(("set", f"k{i}", i),), replicas=replicas
    )


class TestJoinCombinator:
    def test_two_bb_instances_in_parallel(self, config5):
        """Two independent BB sessions run concurrently and both decide
        correctly."""

        def protocol(ctx):
            results = yield from join(
                ctx,
                [
                    byzantine_broadcast_protocol(ctx, 0, "alpha", session="a"),
                    byzantine_broadcast_protocol(ctx, 1, "beta", session="b"),
                ],
            )
            return tuple(results)

        simulation = Simulation(config5, seed=0)
        for pid in config5.processes:
            simulation.add_process(pid, protocol)
        result = simulation.run()
        assert result.unanimous_decision() == ("alpha", "beta")

    def test_parallel_no_slower_than_single(self, config5):
        """k joined instances take about as long as one (that is the
        point)."""

        def single(ctx):
            return (
                yield from byzantine_broadcast_protocol(
                    ctx, 0, "v", session="solo"
                )
            )

        def parallel(ctx):
            results = yield from join(
                ctx,
                [
                    byzantine_broadcast_protocol(
                        ctx, s % ctx.config.n, "v", session=f"s{s}"
                    )
                    for s in range(4)
                ],
            )
            return tuple(results)

        def run(factory):
            simulation = Simulation(config5, seed=0)
            for pid in config5.processes:
                simulation.add_process(pid, factory)
            return simulation.run()

        solo = run(single)
        quad = run(parallel)
        assert quad.ticks <= solo.ticks + 2

    def test_scope_attribution_is_not_contaminated(self, config5):
        """Each branch's sends stay attributed to its own scope path
        even though the branches interleave inside one generator."""

        def protocol(ctx):
            def branch(name, to):
                with ctx.scope(name):
                    ctx.send(to, f"from-{name}")
                    yield
                    ctx.send(to, f"again-{name}")
                    yield
                return name

            results = yield from join(
                ctx, [branch("left", 1), branch("right", 2)]
            )
            return tuple(results)

        simulation = Simulation(config5, seed=0)
        simulation.add_process(0, protocol)
        for pid in (1, 2, 3, 4):
            simulation.add_process(pid, lambda ctx: iter(()))
        result = simulation.run()
        scopes = result.ledger.words_by_scope()
        assert scopes == {"left": 2, "right": 2}
        assert result.decisions[0] == ("left", "right")

    def test_branches_of_different_lengths(self, config5):
        def protocol(ctx):
            def short(ctx):
                yield
                return "short"

            def long(ctx):
                for _ in range(5):
                    yield
                return "long"

            return (yield from join(ctx, [short(ctx), long(ctx)]))

        simulation = Simulation(config5, seed=0)
        for pid in config5.processes:
            simulation.add_process(pid, protocol)
        result = simulation.run()
        assert result.unanimous_decision() == ["short", "long"]


class TestPipelinedSmr:
    def test_same_state_as_sequential(self, config5):
        workloads = [workload(i, (i % 5, (i + 1) % 5)) for i in range(8)]
        sequential = run_batched_smr(
            config5, workloads, num_slots=10, batch_size=2
        )
        pipelined = run_pipelined_smr(
            config5, workloads, num_slots=10, window=5, batch_size=2
        )
        assert (
            dict(sequential.unanimous_decision().state)
            == dict(pipelined.unanimous_decision().state)
        )

    def test_latency_speedup_close_to_window(self, config5):
        workloads = [workload(i, (i % 5,)) for i in range(8)]
        sequential = run_batched_smr(
            config5, workloads, num_slots=10, batch_size=2
        )
        pipelined = run_pipelined_smr(
            config5, workloads, num_slots=10, window=5, batch_size=2
        )
        speedup = sequential.ticks / pipelined.ticks
        assert speedup > 3.5  # window 5, minus wave-boundary overhead

    def test_exactly_once_across_same_wave_duplicates(self, config5):
        """A command fanned out to replicas whose sender slots fall in
        the same wave may be proposed twice; it must commit once."""
        workloads = [workload(0, (0, 1, 2, 3, 4))]  # full fan-out
        result = run_pipelined_smr(
            config5, workloads, num_slots=5, window=5, batch_size=2
        )
        outcome = result.unanimous_decision()
        assert [c.key for c in outcome.log] == [("c0", 0)]

    def test_pipelined_with_crashed_replica(self, config5):
        workloads = [workload(i, (i % 5, (i + 2) % 5)) for i in range(6)]
        byzantine = {2: SilentBehavior()}
        result = run_pipelined_smr(
            config5, workloads, num_slots=10, window=5, byzantine=byzantine
        )
        outcome = result.unanimous_decision()
        # All six commands commit (each had a live fan-out target).
        assert len(outcome.log) == 6
        states = {result.decisions[p].state for p in result.correct_pids}
        assert len(states) == 1

    @pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
    def test_crash_inside_join_unwinds_every_branch(self, config5, tmp_path):
        """A replica crashed mid-wave is inside ``join`` with ``window``
        BB branches in flight.  Dropping it used to leave the branches
        to the GC, which finalised each one against whatever scope
        stack was swapped in: one ``Exception ignored ... IndexError:
        pop from empty list`` per branch."""
        workloads = [workload(i, (i % 5, (i + 2) % 5)) for i in range(4)]
        plan = FaultPlan(
            seed=0, crashes=(ProcessCrash(pid=2, at_tick=4, restart_tick=7),)
        )
        result = run_pipelined_smr(
            config5, workloads, num_slots=4, window=2,
            params=RunParameters(
                fault_plan=plan, recovery=RecoveryManager(tmp_path)
            ),
        )
        gc.collect()  # the unraisable hook fires at finalisation
        assert result.recovered == frozenset({2})
        assert len(result.unanimous_decision().log) == 4
