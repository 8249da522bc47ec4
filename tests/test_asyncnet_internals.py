"""Unit tests for asyncnet internals (the network host and its drivers).

The result surface is covered by ``test_runtime_support.TestRunResult``:
async runs return the simulator's ``RunResult``."""

import asyncio

import pytest

from repro.asyncnet.runner import AsyncNetwork, _drive_behavior
from repro.errors import SchedulerError
from repro.runtime.envelope import Envelope


class TestAsyncNetwork:
    def test_latency_bound_enforced(self, config5):
        with pytest.raises(SchedulerError):
            AsyncNetwork(config5, tick_duration=0.01, latency=0.01)

    def test_post_records_and_queues(self, config5):
        async def scenario():
            network = AsyncNetwork(config5, tick_duration=0.01)
            network.post(0, (1,), "hello", tick=3, scope="test")
            envelope = network.queue_for(1).get_nowait()
            assert envelope.sender == 0
            assert envelope.payload == "hello"
            assert envelope.sent_at == 3
            assert network.ledger.correct_words == 1
            record = network.ledger.records[0]
            assert record.scope == "test"

        asyncio.run(scenario())

    def test_post_to_unknown_pid_rejected(self, config5):
        async def scenario():
            network = AsyncNetwork(config5, tick_duration=0.01)
            with pytest.raises(SchedulerError):
                network.post(0, (99,), "x", tick=0, scope="s")

        asyncio.run(scenario())

    def test_latency_delays_delivery(self, config5):
        async def scenario():
            network = AsyncNetwork(
                config5, tick_duration=0.05, latency=0.02
            )
            network.post(0, (1,), "delayed", tick=0, scope="s")
            queue = network.queue_for(1)
            assert queue.empty()  # not yet delivered
            await asyncio.sleep(0.04)
            assert not queue.empty()

        asyncio.run(scenario())

    def test_byzantine_sender_words_not_correct(self, config5):
        async def scenario():
            network = AsyncNetwork(config5, tick_duration=0.01)
            network.corrupted = {3}
            network.post(3, (1,), "evil", tick=0, scope="byzantine")
            assert network.ledger.correct_words == 0
            assert network.ledger.total_words == 1

        asyncio.run(scenario())


class TestByzantineInboxDrain:
    def test_early_envelope_waits_for_its_due_round(self, config5):
        """A peer that wakes first at the round-``k`` boundary enqueues
        its round-``k`` sends (due ``k + 1``) before the behavior drains
        for round ``k``; the behavior must not see them a round early."""
        k = 1
        seen: dict[int, list[str]] = {}
        rushed: list = []  # real transports offer no rushing view

        class Recorder:
            def step(self, api):
                seen[api.now] = [e.payload for e in api.inbox]
                rushed.extend(api.rushed)

        def stamped(payload, delivered_at):
            return Envelope(
                sender=0, payload=payload,
                sent_at=delivered_at - 1, delivered_at=delivered_at,
            )

        async def scenario():
            network = AsyncNetwork(config5, tick_duration=0.01)
            network.corrupted = {4}
            queue = network.queue_for(4)
            queue.put_nowait(stamped("due-k", k))
            queue.put_nowait(stamped("early", k + 1))
            # The behavior is the run's lone participant: its own parking
            # completes every boundary, and each boundary still yields
            # to the loop, so this coroutine gets to cancel it.
            network.start_clock(1)
            task = asyncio.create_task(_drive_behavior(network, 4, Recorder()))
            await asyncio.sleep(0.05)
            task.cancel()
            await asyncio.gather(task, return_exceptions=True)

        asyncio.run(scenario())
        assert seen[0] == []
        assert seen[k] == ["due-k"]
        assert seen[k + 1] == ["early"]
        assert rushed == []
