"""Tests for the localhost-TCP transport."""

import asyncio

import pytest

from repro.asyncnet.runner import AsyncNetwork
from repro.asyncnet.tcp import (
    TcpProcessNode,
    _encode_frame,
    _Peer,
    _read_frame,
    run_over_tcp,
)
from repro.core.byzantine_broadcast import (
    byzantine_broadcast_protocol,
    run_byzantine_broadcast,
)
from repro.core.strong_ba import strong_ba_protocol
from repro.errors import SchedulerError
from repro.obs.observer import Observer
from repro.runtime.envelope import Envelope

pytestmark = pytest.mark.usefixtures("exact_landing_accounting")

TICK = 0.03


def run(coro):
    return asyncio.run(coro)


class TestTcpTransport:
    def test_bb_over_sockets(self, config5):
        result = run(
            run_over_tcp(
                config5,
                {
                    pid: (lambda ctx: byzantine_broadcast_protocol(ctx, 0, "v"))
                    for pid in config5.processes
                },
                tick_duration=TICK,
            )
        )
        assert result.unanimous_decision() == "v"

    def test_word_bill_matches_simulator(self, config5):
        """The transport changes; the paper's complexity measure does
        not.  Rounds end on completion, so a generous round timeout δ
        costs nothing unless the test machine stalls past it; one retry
        with a longer δ guards against a round closed by timeout."""
        simulated = run_byzantine_broadcast(config5, sender=0, value="v")
        for attempt, tick in enumerate((0.08, 0.15)):
            over_tcp = run(
                run_over_tcp(
                    config5,
                    {
                        pid: (
                            lambda ctx: byzantine_broadcast_protocol(ctx, 0, "v")
                        )
                        for pid in config5.processes
                    },
                    tick_duration=tick,
                )
            )
            if over_tcp.correct_words == simulated.correct_words:
                break
        assert over_tcp.correct_words == simulated.correct_words
        assert over_tcp.unanimous_decision() == "v"

    def test_strong_ba_over_sockets(self, config5):
        result = run(
            run_over_tcp(
                config5,
                {
                    pid: (lambda ctx: strong_ba_protocol(ctx, 1))
                    for pid in config5.processes
                },
                tick_duration=TICK,
            )
        )
        assert result.unanimous_decision() == 1

    def test_crashed_machine(self, config5):
        """A crashed process has no TCP node; sends to it evaporate and
        the survivors still agree."""
        result = run(
            run_over_tcp(
                config5,
                {
                    pid: (lambda ctx: byzantine_broadcast_protocol(ctx, 0, "v"))
                    for pid in config5.processes
                    if pid != 3
                },
                crashed=frozenset({3}),
                tick_duration=TICK,
            )
        )
        assert result.unanimous_decision() == "v"
        assert result.corrupted == frozenset({3})

    def test_missing_factory_rejected(self, config5):
        with pytest.raises(SchedulerError):
            run(
                run_over_tcp(
                    config5,
                    {0: lambda ctx: strong_ba_protocol(ctx, 1)},
                    tick_duration=TICK,
                )
            )


class TestLandingAccounting:
    """Every wired copy that can never land is written off exactly once,
    so its round ends on completion instead of its timeout.  (The
    ``exact_landing_accounting`` fixture catches the opposite error.)"""

    def test_sends_to_a_crashed_machine_hold_no_round(self, config5):
        observer = Observer()
        result = run(
            run_over_tcp(
                config5,
                {
                    pid: (lambda ctx: byzantine_broadcast_protocol(ctx, 0, "v"))
                    for pid in config5.processes
                    if pid != 3
                },
                crashed=frozenset({3}),
                tick_duration=1.0,
                observer=observer,
            )
        )
        assert result.unanimous_decision() == "v"
        counters = observer.snapshot()["metrics"]["counters"]
        assert counters.get("sync.timeout_fired", 0) == 0

    def test_frames_still_queued_at_close_are_lost_once(self):
        """A crashed sender closes its sessions; what its writers never
        put on a socket dies with it (sends to a dead peer:
        ``test_faults.py::TestTcpBackpressure``)."""

        async def scenario():
            lost = []
            peer = _Peer("127.0.0.1", 1, sender_pid=9, epoch=0, on_lost=lost.append)
            peer.send("queued")  # never connected: no writer drains it
            await peer.close()
            await peer.close()
            assert lost == ["queued"]

        run(scenario())

    def test_ack_none_writes_off_nothing(self):
        """``ack None``: the receiver has no session for this epoch.
        Frames written on an earlier connection are dropped from the
        retransmit buffer but not written off — that connection's
        handler may have landed them before it died — and frames
        following this connection's hello reach the fresh session."""

        async def scenario():
            received = []

            async def fresh_receiver(reader, writer):
                try:
                    await _read_frame(reader)  # hello
                    writer.write(_encode_frame(("ack", None)))
                    while True:
                        received.append((await _read_frame(reader))[3])
                except asyncio.IncompleteReadError:
                    pass
                finally:
                    writer.close()
                    await writer.wait_closed()

            server = await asyncio.start_server(fresh_receiver, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            lost = []
            peer = _Peer("127.0.0.1", port, sender_pid=9, epoch=0, on_lost=lost.append)
            peer.unacked.append((0, b""))  # an earlier connection's
            peer.seq = 1
            await peer.connect()
            peer.send("after")
            while not received or peer._resync:
                await asyncio.sleep(0.01)
            assert lost == []
            assert received == ["after"]
            await peer.close()
            server.close()
            await server.wait_closed()

        run(scenario())

    def test_frames_from_a_dead_incarnation_are_written_off(self, config5):
        async def scenario():
            network = AsyncNetwork(config5)
            written_off = []
            network.write_off = written_off.append
            node = TcpProcessNode(network, 1)
            port = await node.start_server()
            stale = Envelope(
                sender=0, receiver=1, payload="x", sent_at=0, delivered_at=1
            )
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(_encode_frame(("hello", 0, 1)))
            writer.write(_encode_frame(("msg", 0, 0, stale)))  # epoch 0 < 1
            await writer.drain()
            while not written_off:
                await asyncio.sleep(0.01)
            assert written_off == [stale]
            assert network.queue_for(1).empty()
            writer.close()
            await writer.wait_closed()
            await node.close_incoming()

        run(scenario())
