"""Cross-runtime determinism: one seed, one canonical trace.

The model checker's soundness rests on runs being pure functions of
their decision sequences, and the repo's broader determinism promise is
that the tick simulator, the asyncio runner, and a recorded replay all
produce the *same events at the same ticks* (``Trace.canonical``).
These property tests pin both:

* tick-sim, asyncio runner, and a recorded-then-replayed run of the
  same seed yield identical canonical traces;
* a seeded walk through an *open* choice space replays bit-identically
  through :class:`~repro.mc.choices.ScriptedChoices` over its own
  decision log.
"""

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.clients import ClientWorkload, assign_queues
from repro.apps.pipelined import (
    pipelined_smr_replica_protocol,
    run_pipelined_smr,
)
from repro.asyncnet import run_async, run_over_tcp
from repro.config import SystemConfig
from repro.core.validity import ExternalValidity
from repro.core.weak_ba import weak_ba_protocol
from repro.mc.choices import CLOSED_SPACE, ChoiceSpace, ScriptedChoices, SeededChoices
from repro.runtime.scheduler import Simulation

CONFIG = SystemConfig(n=4, t=1)
VALIDITY = ExternalValidity(lambda v: isinstance(v, str))

seeds = st.integers(min_value=0, max_value=2**16)


def _factory(pid):
    return lambda ctx: weak_ba_protocol(ctx, f"v{pid}", VALIDITY, num_phases=1)


def _run_sim(seed, choices=None):
    simulation = Simulation(CONFIG, seed=seed, choices=choices)
    for pid in CONFIG.processes:
        simulation.add_process(pid, _factory(pid))
    return simulation.run()


def _run_asyncio(seed):
    # The suite-standard round timeout (test_asyncnet.py): a shorter one
    # can close a round by timeout under load, landing events one round
    # late and breaking canonical-trace equality spuriously.
    return asyncio.run(
        run_async(
            CONFIG,
            {pid: _factory(pid) for pid in CONFIG.processes},
            seed=seed,
            tick_duration=0.02,
        )
    )


class TestCrossRuntimeDeterminism:
    @settings(max_examples=3, deadline=None)
    @given(seeds)
    def test_sim_async_and_recorded_replay_agree(self, seed):
        sim = _run_sim(seed)

        # Recorded run: same seed through the choice interface (closed
        # space - the pristine schedule), then replayed from its log.
        recorded = SeededChoices(CLOSED_SPACE, seed)
        recorded_run = _run_sim(seed, choices=recorded)
        replayed = _run_sim(
            seed,
            choices=ScriptedChoices(CLOSED_SPACE, recorded.decisions, strict=True),
        )

        asynced = _run_asyncio(seed)

        reference = sim.trace.canonical()
        assert recorded_run.trace.canonical() == reference
        assert replayed.trace.canonical() == reference
        assert asynced.trace.canonical() == reference
        assert replayed.decisions == sim.decisions == asynced.decisions

    @pytest.mark.parametrize("n", [3, 5])
    def test_join_based_protocol_agrees_on_all_three_runtimes(self, n):
        """Pipelined SMR interleaves its BB slots with
        ``runtime.concurrency.join``, which swaps the context's scope
        stack: the wall-clock runtimes must offer the very same context
        (their hand-copied one lacked ``swap_scope_stack``)."""
        config = SystemConfig(n=n, t=(n - 1) // 2)
        workloads = [
            ClientWorkload(
                client=f"c{i}", ops=(("set", f"k{i}", i),), replicas=(i % n,)
            )
            for i in range(2)
        ]
        sim = run_pipelined_smr(config, workloads, 2, window=2, seed=5)
        assert sim.unanimous_decision().log

        queues = assign_queues(workloads, config)
        factories = {
            pid: lambda ctx, q=tuple(queues[pid]): (
                pipelined_smr_replica_protocol(ctx, q, 2, window=2)
            )
            for pid in config.processes
        }
        for run, tick_duration in ((run_async, 0.02), (run_over_tcp, 0.05)):
            result = asyncio.run(
                run(config, factories, seed=5, tick_duration=tick_duration)
            )
            assert result.decisions == sim.decisions
            assert result.trace.canonical() == sim.trace.canonical()
            assert result.correct_words == sim.correct_words
            assert result.ticks == sim.ticks

    @settings(max_examples=10, deadline=None)
    @given(seeds)
    def test_open_space_walk_replays_bit_identically(self, seed):
        space = ChoiceSpace(reorder=True, perm_cap=6)
        walk = SeededChoices(space, seed)
        walked = _run_sim(seed, choices=walk)

        script = ScriptedChoices(space, walk.decisions, strict=True)
        replayed = _run_sim(seed, choices=script)

        assert replayed.trace.canonical() == walked.trace.canonical()
        assert script.decisions == walk.decisions
        assert script.in_free_region  # the whole script was consumed
