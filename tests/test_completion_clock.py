"""The wall-clock hosts' completion clock.

A round boundary opens once every live participant has parked at it and
every copy due in the round has landed or been written off, and at the
latest ``tick_duration`` after the previous boundary opened — a round
closed by timeout, counted in the observer's ``sync.timeout_fired``.
These tests pin the barrier's rules on a bare :class:`AsyncNetwork`,
then the end-to-end promise: failure-free runs close no round by
timeout and keep the simulator's canonical trace, and losing one frame
costs exactly one round its timeout.
"""

import asyncio

import pytest

from repro.asyncnet import run_async, run_over_tcp
from repro.asyncnet.runner import AsyncNetwork
from repro.config import RunParameters, SystemConfig
from repro.faults import FaultPlan
from repro.obs.observer import Observer
from repro.protocols.table import PROTOCOLS, run_protocol, string_validity
from repro.runtime.envelope import Envelope

pytestmark = pytest.mark.usefixtures("exact_landing_accounting")

CONFIG = SystemConfig.with_optimal_resilience(5)

METAS = {
    "weak_ba": lambda pid: {"input": "v"},
    "bb": lambda pid: {"sender": 0, "input": "v"},
    "smr": lambda pid: {"num_slots": 2, "commands": [f"c{pid}.{i}" for i in range(2)]},
}


def timeouts(observer: Observer) -> int:
    return observer.snapshot()["metrics"]["counters"].get("sync.timeout_fired", 0)


def run_row(runner, name, config=CONFIG, **options):
    """Run table row ``name`` on a wall-clock host and on the simulator."""
    metas = {pid: METAS[name](pid) for pid in config.processes}
    validity = string_validity()
    factories = {
        pid: PROTOCOLS[name].build(meta, validity=validity)
        for pid, meta in metas.items()
    }
    observer = Observer()
    result = asyncio.run(runner(config, factories, observer=observer, **options))
    simulated = run_protocol(
        name, config, metas, seed=options.get("seed", 0),
        validity=string_validity,
    )
    return result, simulated, observer


def envelope_for(network, sender=0, receiver=1, tick=0):
    return Envelope(
        sender=sender, receiver=receiver, payload="x", sent_at=tick,
        delivered_at=network.delivery_round(sender, receiver, tick),
    )


class TestBarrier:
    def test_boundary_waits_for_a_due_copy_then_opens_early(self, config5):
        async def scenario():
            observer = Observer()
            network = AsyncNetwork(
                config5, tick_duration=5.0, latency=0.05, observer=observer
            )
            network.start_clock(1)
            network.post(0, 1, "late", tick=0, scope="s")
            parked = asyncio.create_task(network.wait_for_round(1))
            await asyncio.sleep(0.01)
            assert network.opened == 0  # parked, but the copy is in flight
            await asyncio.wait_for(parked, 1.0)  # far sooner than δ = 5 s
            assert network.opened == 1
            assert not network.queue_for(1).empty()
            assert timeouts(observer) == 0
            network.cancel_timers()

        asyncio.run(scenario())

    def test_write_off_releases_the_boundary(self, config5):
        async def scenario():
            network = AsyncNetwork(config5, tick_duration=5.0)
            network.start_clock(1)
            lost = envelope_for(network)
            network.wire(lost, lambda envelope: None)  # a transport loses it
            parked = asyncio.create_task(network.wait_for_round(1))
            await asyncio.sleep(0.01)
            assert network.opened == 0
            network.write_off(lost)
            await asyncio.wait_for(parked, 1.0)
            assert network.opened == 1 and network._due == {}
            network.cancel_timers()

        asyncio.run(scenario())

    def test_unaccounted_copy_costs_one_timeout_and_a_late_landing_is_ignored(
        self, config5
    ):
        async def scenario():
            observer = Observer()
            network = AsyncNetwork(config5, tick_duration=0.05, observer=observer)
            network.start_clock(1)
            lost = envelope_for(network)
            network.wire(lost, lambda envelope: None)
            await network.wait_for_round(1)
            assert network.opened == 1
            assert timeouts(observer) == 1
            network.land(lost)  # a straggler: its boundary is long open
            assert network._due == {}
            await network.wait_for_round(2)  # nothing owed: no timeout
            assert timeouts(observer) == 1
            network.cancel_timers()

        asyncio.run(scenario())

    def test_every_participant_must_park_unless_it_left(self, config5):
        async def scenario():
            network = AsyncNetwork(config5, tick_duration=5.0)
            network.start_clock(2)
            parked = asyncio.create_task(network.wait_for_round(1))
            await asyncio.sleep(0.01)
            assert network.opened == 0
            network.leave()  # the other driver returned
            await asyncio.wait_for(parked, 1.0)
            assert network.opened == 1
            network.leave()
            assert network._timeout is None  # nobody left to time out

        asyncio.run(scenario())

    def test_a_lagging_participant_passes_open_boundaries(self, config5):
        async def scenario():
            network = AsyncNetwork(config5, tick_duration=0.02)
            network.start_clock(2)
            await network.wait_for_round(1)  # the other never parked
            await network.wait_for_round(1)  # already open: straight through
            assert network.opened == 1
            network.cancel_timers()

        asyncio.run(scenario())


@pytest.mark.parametrize("runner", [run_async, run_over_tcp])
@pytest.mark.parametrize("name", sorted(METAS))
def test_failure_free_run_closes_no_round_by_timeout(runner, name):
    """A generous δ costs nothing when every round ends on completion;
    the trace is the simulator's."""
    result, simulated, observer = run_row(runner, name, tick_duration=1.0)
    assert timeouts(observer) == 0
    assert result.decisions == simulated.decisions
    assert result.trace.canonical() == simulated.trace.canonical()
    assert result.correct_words == simulated.correct_words


def test_faulty_weak_ba_closes_no_round_by_timeout():
    """The shape of the benchmark's asyncio decision: n=7 weak BA under
    duplicates, sub-δ delays and reordering.  A delayed copy holds its
    round open for its delay, never for δ."""
    plan = FaultPlan(
        seed=11, duplicate_rate=0.2, delay_rate=0.3, reorder_rate=0.3,
        max_delay=0.4,
    )
    config = SystemConfig.with_optimal_resilience(7)
    metas = {pid: METAS["weak_ba"](pid) for pid in config.processes}
    factories = {
        pid: PROTOCOLS["weak_ba"].build(meta, validity=string_validity())
        for pid, meta in metas.items()
    }
    observer = Observer()
    result = asyncio.run(
        run_async(
            config, factories, seed=3, tick_duration=0.05, fault_plan=plan,
            observer=observer,
        )
    )
    simulated = run_protocol(
        "weak_ba", config, metas, seed=3,
        params=RunParameters(seed=3, fault_plan=plan), validity=string_validity,
    )
    assert timeouts(observer) == 0
    assert result.trace.canonical() == simulated.trace.canonical()


@pytest.mark.parametrize("runner", [run_async, run_over_tcp])
def test_a_swallowed_frame_costs_exactly_one_timeout(runner, monkeypatch):
    """A transport that silently loses one copy — neither landing it nor
    writing it off — holds that one round for its full timeout; the
    protocol tolerates the omission and still decides."""
    swallowed = []
    land = AsyncNetwork.land

    def lossy(network, envelope):
        if not swallowed and envelope.sender != envelope.receiver:
            swallowed.append(envelope)
            return
        land(network, envelope)

    monkeypatch.setattr(AsyncNetwork, "land", lossy)
    result, _, observer = run_row(runner, "weak_ba", tick_duration=0.1)
    assert len(swallowed) == 1
    assert timeouts(observer) == 1
    assert result.unanimous_decision() == "v"
