"""Regression suite for the deterministic fault-injection layer.

Covers the :mod:`repro.faults` plan/injector semantics, the simulator
and both real transports running under seeded fault plans (safety and
word bounds must survive), reproducibility (same seed, same faults, same
canonical trace), and the TCP transport's connection-lifecycle hardening
(reconnect after reset, run timeouts, leak-free teardown — the suite
runs with ``ResourceWarning`` as an error).
"""

import asyncio
import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asyncnet import run_async
from repro.asyncnet.tcp import run_over_tcp
from repro.config import RunParameters, derive_rng
from repro.core.byzantine_broadcast import (
    byzantine_broadcast_protocol,
    run_byzantine_broadcast,
)
from repro.core.strong_ba import run_strong_ba, strong_ba_protocol
from repro.errors import ConfigurationError, TerminationViolation
from repro.faults import ConnectionReset, FaultDecision, FaultInjector, FaultPlan
from repro.faults.plan import _ORDER_TAG, _mix
from repro.runtime.envelope import Envelope
from repro.verify import verify_under_plan

pytestmark = pytest.mark.usefixtures("exact_landing_accounting")

TICK = 0.05

# The workhorse plan of this suite: send-omission faults confined to
# process 1 (so |lossy ∪ corrupted| <= t and every property must hold),
# plus model-legal duplication, reordering, and sub-delta delays on all
# edges.  Chosen constants are asserted deterministic below.
MIXED_PLAN = FaultPlan(
    seed=11,
    drop_rate=0.3,
    duplicate_rate=0.3,
    reorder_rate=0.5,
    delay_rate=0.5,
    max_delay=0.4,
    lossy=frozenset({1}),
)


def run(coro):
    return asyncio.run(coro)


def envelopes_from(senders, tick=3):
    return [
        Envelope(sender=s, payload=i, sent_at=tick, delivered_at=tick + 1)
        for i, s in enumerate(senders)
    ]


class TestFaultPlan:
    def test_rates_validated(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(drop_rate=1.5)
        with pytest.raises(ConfigurationError):
            FaultPlan(max_delay=1.0)
        with pytest.raises(ConfigurationError):
            FaultPlan(resets=(ConnectionReset(tick=-1, sender=0, receiver=1),))
        with pytest.raises(ConfigurationError):
            FaultPlan(max_duplicates=-1)

    def test_decide_is_pure(self):
        plan = FaultPlan(seed=3, drop_rate=0.5, duplicate_rate=0.5, delay_rate=0.5)
        first = [plan.decide(0, 1, tick=t, seq=s) for t in range(20) for s in range(3)]
        second = [plan.decide(0, 1, tick=t, seq=s) for t in range(20) for s in range(3)]
        assert first == second
        # Coordinates matter: a different edge sees different faults.
        other = [plan.decide(1, 0, tick=t, seq=s) for t in range(20) for s in range(3)]
        assert first != other

    def test_seed_changes_decisions(self):
        a = FaultPlan(seed=1, drop_rate=0.5)
        b = a.reseeded(2)
        decisions = lambda p: [p.decide(0, 1, t, 0).drop for t in range(64)]
        assert decisions(a) != decisions(b)
        assert decisions(b) == decisions(FaultPlan(seed=2, drop_rate=0.5))

    def test_lossy_scopes_drops_to_omission_senders(self):
        plan = FaultPlan(seed=5, drop_rate=1.0, lossy=frozenset({2}))
        assert all(plan.decide(2, r, t, 0).drop for r in (0, 1) for t in range(10))
        assert not any(plan.decide(0, r, t, 0).drop for r in (1, 2) for t in range(10))
        assert plan.faulty == frozenset({2})
        # Without drops nobody is charged as faulty.
        assert FaultPlan(lossy=frozenset({2})).faulty == frozenset()

    def test_copies_expand_duplicates_and_drops(self):
        assert FaultDecision(drop=True).copies() == []
        assert FaultDecision(duplicates=2, delay=0.25).copies() == [0.25, 0.25, 0.25]
        plan = FaultPlan(seed=0, duplicate_rate=1.0, max_duplicates=1)
        assert all(
            len(plan.decide(0, 1, t, 0).copies()) == 2 for t in range(10)
        )

    def test_slow_sender_always_max_delay(self):
        plan = FaultPlan(seed=9, slow=frozenset({4}), max_delay=0.3)
        assert all(plan.decide(4, 0, t, 0).delay == 0.3 for t in range(10))
        assert all(plan.decide(0, 4, t, 0).delay == 0.0 for t in range(10))

    def test_order_inbox_is_arrival_order_independent(self):
        plan = FaultPlan(seed=7, reorder_rate=1.0)
        inbox = envelopes_from([3, 1, 4, 0, 2])
        shuffled_arrival = list(reversed(inbox))
        assert plan.order_inbox(0, 3, inbox) == plan.order_inbox(0, 3, shuffled_arrival)
        # Some tick must actually be scrambled away from sender order.
        scrambles = [
            plan.order_inbox(0, t, inbox) != sorted(inbox, key=lambda e: e.sender)
            for t in range(10)
        ]
        assert any(scrambles)

    def test_order_inbox_without_reordering_sorts_by_sender(self):
        plan = FaultPlan(seed=7)
        inbox = envelopes_from([3, 1, 4, 0, 2])
        assert [e.sender for e in plan.order_inbox(0, 3, inbox)] == [0, 1, 2, 3, 4]

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        rate=st.floats(0.0, 1.0),
        receiver=st.integers(0, 6),
        tick=st.integers(0, 500),
        senders=st.lists(st.integers(0, 6), max_size=5),
    )
    def test_maybe_shuffle_equals_drawing_for_every_inbox(
        self, seed, rate, receiver, tick, senders
    ):
        """Skipping the draw for inboxes of fewer than two envelopes
        changes no order: every ``(receiver, tick)`` has its own RNG."""

        def drawing_for_every_inbox(plan, receiver, tick, envelopes):
            ordered = list(envelopes)
            if not plan.reorder_rate:
                return ordered
            rng = derive_rng(plan.seed, _ORDER_TAG ^ _mix(0, 0, receiver, tick))
            if rng.random() < plan.reorder_rate:
                rng.shuffle(ordered)
            return ordered

        plan = FaultPlan(seed=seed, reorder_rate=rate)
        inbox = envelopes_from(senders, tick)
        assert plan.maybe_shuffle(receiver, tick, inbox) == drawing_for_every_inbox(
            plan, receiver, tick, inbox
        )

    def test_describe_mentions_active_faults(self):
        text = MIXED_PLAN.describe()
        assert "drop=0.3" in text and "[1]" in text and "reorder=0.5" in text
        assert "pristine" in FaultPlan(seed=4).describe()
        assert not FaultPlan(seed=4).is_active()
        assert MIXED_PLAN.is_active()

    def test_derive_rng_shared_idiom(self):
        """The fault layer and the scheduler derive their RNG streams
        from one seed via the same ``seed ^ tag`` idiom."""
        assert derive_rng(3, 0x1B0C).random() == derive_rng(3, 0x1B0C).random()

    def test_zero_duplicate_cap_is_a_pure_noop(self):
        """Regression: a fired duplicate verdict with ``max_duplicates=0``
        must yield zero extra copies AND leave every other stream (delay)
        exactly as a duplicate-free plan would."""
        capped = FaultPlan(
            seed=6, duplicate_rate=1.0, max_duplicates=0, delay_rate=1.0
        )
        uncapped = dataclasses.replace(capped, max_duplicates=2)
        quiet = dataclasses.replace(capped, duplicate_rate=0.0)
        for t in range(20):
            for s in range(3):
                with_cap = capped.decide(0, 1, t, s)
                assert with_cap.duplicates == 0
                assert with_cap.copies() == [with_cap.delay]
                # Delay stream is independent of the duplicate config.
                assert with_cap.delay == uncapped.decide(0, 1, t, s).delay
                assert with_cap.delay == quiet.decide(0, 1, t, s).delay

    def test_verdict_streams_pinned_across_rate_toggles(self):
        """Regression: each verdict consumes a fixed number of draws, so
        toggling one fault type's rate never shifts the streams another
        fault type sees."""
        base = FaultPlan(seed=9, duplicate_rate=0.4, delay_rate=0.6)
        with_drops = dataclasses.replace(base, drop_rate=0.5)
        coords = [(t, s) for t in range(40) for s in range(3)]
        for t, s in coords:
            a = base.decide(0, 1, t, s)
            b = with_drops.decide(0, 1, t, s)
            assert (a.duplicates, a.delay) == (b.duplicates, b.delay)
        # ... and toggling duplicates never shifts the drop/delay streams.
        no_dups = dataclasses.replace(with_drops, duplicate_rate=0.0)
        for t, s in coords:
            a = with_drops.decide(0, 1, t, s)
            b = no_dups.decide(0, 1, t, s)
            assert (a.drop, a.delay) == (b.drop, b.delay)
        # Something actually fired in each stream, or the test is vacuous.
        fired = [with_drops.decide(0, 1, t, s) for t, s in coords]
        assert any(d.drop for d in fired)
        assert any(d.duplicates for d in fired)
        assert any(d.delay for d in fired)

    def test_duplicate_counts_stay_within_cap(self):
        plan = FaultPlan(seed=2, duplicate_rate=1.0, max_duplicates=3)
        counts = {plan.decide(0, 1, t, 0).duplicates for t in range(200)}
        assert counts <= {1, 2, 3}
        assert len(counts) > 1  # the count draw actually varies


class TestFaultInjector:
    def test_seq_numbers_make_same_tick_sends_independent(self):
        plan = FaultPlan(seed=2, drop_rate=0.5)
        injector = FaultInjector(plan)
        fates = [injector.decide(0, 1, tick=0) for _ in range(64)]
        assert fates == [plan.decide(0, 1, 0, seq) for seq in range(64)]
        assert len({f.drop for f in fates}) == 2  # both outcomes occur

    def test_reset_fires_once_at_or_after_tick(self):
        plan = FaultPlan(resets=(ConnectionReset(tick=5, sender=0, receiver=1),))
        injector = FaultInjector(plan)
        assert not injector.take_reset(0, 1, tick=4)
        assert not injector.take_reset(1, 0, tick=7)  # other direction
        assert injector.take_reset(0, 1, tick=7)
        assert not injector.take_reset(0, 1, tick=8)  # already fired


class TestSimulatorUnderFaults:
    def test_bb_survives_mixed_plan_and_is_reproducible(self, config5):
        params = RunParameters(fault_plan=MIXED_PLAN)
        first = run_byzantine_broadcast(config5, sender=0, value="v", params=params)
        second = run_byzantine_broadcast(config5, sender=0, value="v", params=params)
        assert first.unanimous_decision() == "v"
        assert first.trace.events == second.trace.events
        assert first.correct_words == second.correct_words
        report = verify_under_plan(first, MIXED_PLAN, expected_decision="v")
        assert report.ok, report.summary()

    def test_words_stay_adaptive_shaped_across_seeds(self, config5):
        """Under omission faults confined to one sender the word bill
        must stay O(n(f+1))-shaped with effective f = 1, across seeds."""
        for seed in (0, 11, 23):
            plan = MIXED_PLAN.reseeded(seed)
            result = run_byzantine_broadcast(
                config5, sender=0, value="v", params=RunParameters(fault_plan=plan)
            )
            assert result.unanimous_decision() == "v"
            report = verify_under_plan(result, plan, expected_decision="v")
            assert report.ok, f"seed {seed}: {report.summary()}"

    def test_strong_ba_survives_mixed_plan(self, config5):
        result = run_strong_ba(
            config5,
            {p: 1 for p in config5.processes},
            params=RunParameters(fault_plan=MIXED_PLAN),
        )
        assert result.unanimous_decision() == 1
        report = verify_under_plan(result, MIXED_PLAN, expected_decision=1)
        assert report.ok, report.summary()

    def test_duplicates_do_not_inflate_word_bill(self, config5):
        """The ledger bills protocol sends, not wire copies: a
        duplicate-everything network must not change word counts."""
        noisy = FaultPlan(seed=1, duplicate_rate=1.0, max_duplicates=2)
        clean = run_byzantine_broadcast(config5, sender=0, value="v")
        duplicated = run_byzantine_broadcast(
            config5, sender=0, value="v", params=RunParameters(fault_plan=noisy)
        )
        assert duplicated.unanimous_decision() == "v"
        assert duplicated.correct_words == clean.correct_words

    def test_reorder_plan_generalizes_inbox_order_knob(self, config5):
        """A pure-reorder plan exercises the within-delta ordering
        freedom of the synchronous model — protocols must not notice."""
        reorder_only = FaultPlan(seed=3, reorder_rate=1.0)
        result = run_byzantine_broadcast(
            config5, sender=0, value="v", params=RunParameters(fault_plan=reorder_only)
        )
        assert result.unanimous_decision() == "v"


class TestAsyncRunnerUnderFaults:
    def test_bb_survives_mixed_plan_and_is_reproducible(self, config5):
        def go():
            return run(
                run_async(
                    config5,
                    {
                        pid: (lambda ctx: byzantine_broadcast_protocol(ctx, 0, "v"))
                        for pid in config5.processes
                    },
                    tick_duration=TICK,
                    fault_plan=MIXED_PLAN,
                )
            )

        first, second = go(), go()
        assert first.unanimous_decision() == "v"
        assert first.trace.canonical() == second.trace.canonical()
        assert first.correct_words == second.correct_words
        report = verify_under_plan(first, MIXED_PLAN, expected_decision="v")
        assert report.ok, report.summary()

    def test_delay_must_stay_below_synchrony_bound(self, config5):
        from repro.errors import SchedulerError

        with pytest.raises(SchedulerError):
            run(
                run_async(
                    config5,
                    {},
                    tick_duration=0.02,
                    latency=0.015,
                    fault_plan=FaultPlan(seed=0, max_delay=0.5),
                )
            )


class TestTcpUnderFaults:
    def test_bb_survives_mixed_plan_with_reset_and_is_reproducible(self, config5):
        """The acceptance scenario: nonzero drop+duplicate+reorder rates
        (delays within the synchrony bound) plus a mid-run connection
        reset; the cluster must reach unanimous valid decisions with
        zero safety violations, twice, with identical canonical traces."""
        plan = dataclasses.replace(
            MIXED_PLAN, resets=(ConnectionReset(tick=18, sender=2, receiver=1),)
        )

        def go():
            return run(
                run_over_tcp(
                    config5,
                    {
                        pid: (lambda ctx: byzantine_broadcast_protocol(ctx, 0, "v"))
                        for pid in config5.processes
                    },
                    tick_duration=TICK,
                    fault_plan=plan,
                    timeout=60.0,
                )
            )

        first, second = go(), go()
        assert first.unanimous_decision() == "v"
        assert second.unanimous_decision() == "v"
        report = verify_under_plan(first, plan, expected_decision="v")
        assert report.ok, report.summary()
        assert first.trace.canonical() == second.trace.canonical()
        assert first.correct_words == second.correct_words

    def test_reconnect_after_mid_run_reset(self, config5):
        """A reset on the fast path's leader→replica link mid-run must be
        survived via reconnect-with-backoff: the frame that hit the dead
        socket is re-sent, so every process still decides."""
        plan = FaultPlan(
            seed=0, resets=(ConnectionReset(tick=1, sender=0, receiver=2),)
        )
        result = run(
            run_over_tcp(
                config5,
                {
                    pid: (lambda ctx: strong_ba_protocol(ctx, 1))
                    for pid in config5.processes
                },
                tick_duration=TICK,
                fault_plan=plan,
                timeout=60.0,
            )
        )
        assert result.unanimous_decision() == 1
        assert result.trace.count("reconnected") >= 1

    def test_run_timeout_raises_and_cleans_up(self, config5):
        """A protocol that never decides must not hang the run (or leak
        sockets — this suite errors on ResourceWarning)."""

        def stuck(ctx):
            while True:
                yield

        for _ in range(2):  # twice: teardown must leave nothing behind
            with pytest.raises(TerminationViolation):
                run(
                    run_over_tcp(
                        config5,
                        {pid: stuck for pid in config5.processes},
                        tick_duration=0.02,
                        timeout=0.3,
                    )
                )

    def test_protocol_crash_still_closes_sockets(self, config5):
        """A protocol task raising mid-run must propagate the error *and*
        release every socket on the way out."""

        def faulty(ctx):
            yield
            raise RuntimeError("boom")

        factories = {
            pid: (lambda ctx: byzantine_broadcast_protocol(ctx, 0, "v"))
            for pid in config5.processes
        }
        factories[2] = faulty
        for _ in range(2):
            with pytest.raises(RuntimeError):
                run(
                    run_over_tcp(
                        config5, factories, tick_duration=0.02, timeout=30.0
                    )
                )


class TestTcpBackpressure:
    def test_peer_writer_drains_queue(self):
        """The per-peer writer coroutine must push every queued frame
        through ``write()+drain()`` — no frame may rot in the queue."""
        from repro.asyncnet.tcp import _Peer, _encode_frame, _read_frame

        async def scenario():
            received = []

            async def handle(reader, writer):
                try:
                    hello = await _read_frame(reader)
                    assert hello[0] == "hello"
                    writer.write(_encode_frame(("ack", None)))
                    await writer.drain()
                    while True:
                        received.append(await _read_frame(reader))
                except asyncio.IncompleteReadError:
                    pass
                finally:
                    writer.close()
                    await writer.wait_closed()

            server = await asyncio.start_server(handle, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            peer = _Peer("127.0.0.1", port, sender_pid=9, epoch=0)
            await peer.connect()
            for i in range(200):
                peer.send({"frame": i})
            while len(received) < 200:
                await asyncio.sleep(0.01)
            assert peer.queue.empty()
            assert [frame[3] for frame in received[:3]] == [
                {"frame": 0}, {"frame": 1}, {"frame": 2}
            ]
            await peer.close()
            server.close()
            await server.wait_closed()

        run(scenario())

    def test_sends_to_dead_peer_evaporate(self):
        """A peer that exhausted its reconnect budget is a crashed
        machine: sends are dropped instead of queueing forever, and each
        is reported lost once (its round need not wait for it)."""
        from repro.asyncnet.tcp import _Peer

        async def scenario():
            lost = []
            peer = _Peer(  # dead port
                "127.0.0.1", 1, sender_pid=9, epoch=0, on_lost=lost.append
            )
            with pytest.raises(ConnectionError):
                await peer.connect()
            assert peer.dead
            peer.send("never delivered")
            assert peer.queue.empty()
            await peer.close()
            assert lost == ["never delivered"]

        run(scenario())


class TestReconnectJitter:
    """The per-peer reconnect backoff is scaled by a seeded jitter draw:
    deterministic for a given (seed, sender, peer), de-synchronized
    across peers — no thundering herd after a healed partition, no loss
    of trace reproducibility."""

    @staticmethod
    def _draws(seed, sender_pid, peer_pid, count=8):
        from repro.asyncnet.tcp import JITTER_SPREAD, _Peer

        peer = _Peer(
            "127.0.0.1", 1, sender_pid=sender_pid, epoch=0,
            peer_pid=peer_pid, seed=seed,
        )
        low, high = JITTER_SPREAD
        return [peer._jitter_rng.uniform(low, high) for _ in range(count)]

    def test_same_seed_and_edge_draw_identical_schedules(self):
        assert self._draws(42, 0, 3) == self._draws(42, 0, 3)

    def test_distinct_edges_and_seeds_desynchronize(self):
        baseline = self._draws(42, 0, 3)
        assert self._draws(42, 0, 2) != baseline  # other peer
        assert self._draws(42, 1, 3) != baseline  # other sender
        assert self._draws(43, 0, 3) != baseline  # other run seed

    def test_draws_stay_inside_the_spread(self):
        from repro.asyncnet.tcp import JITTER_SPREAD

        low, high = JITTER_SPREAD
        for draw in self._draws(7, 2, 4, count=200):
            assert low <= draw <= high


class TestReseedDerivation:
    """ISSUE-9 satellite: ``reseeded(seed)`` must re-derive *every*
    seeded sub-schedule from the new seed — per-message fault verdicts,
    inbox shuffles — while carrying the explicit schedules (crashes,
    resets, lossy/slow sets) over unchanged, so a reseeded plan is the
    same fault *mix*, never a partially stale one."""

    def _verdict_grid(self, plan, ticks=32, seqs=2):
        return [
            plan.decide(s, r, tick=t, seq=q)
            for s in (0, 1, 2)
            for r in (0, 1, 2)
            if s != r
            for t in range(ticks)
            for q in range(seqs)
        ]

    def _shuffle_grid(self, plan, ticks=32):
        inbox = envelopes_from([4, 2, 0, 3, 1])
        return [
            [e.sender for e in plan.maybe_shuffle(0, t, inbox)]
            for t in range(ticks)
        ]

    def test_reseed_rederives_verdicts_and_shuffles(self):
        base = MIXED_PLAN
        twin = base.reseeded(base.seed)
        other = base.reseeded(base.seed + 1)
        # Same seed: bit-identical sub-schedules (reseeding is pure).
        assert self._verdict_grid(twin) == self._verdict_grid(base)
        assert self._shuffle_grid(twin) == self._shuffle_grid(base)
        # New seed: both seeded streams actually re-derive.
        assert self._verdict_grid(other) != self._verdict_grid(base)
        assert self._shuffle_grid(other) != self._shuffle_grid(base)

    def test_reseed_is_equivalent_to_fresh_construction(self):
        fresh = dataclasses.replace(MIXED_PLAN, seed=99)
        assert MIXED_PLAN.reseeded(99) == fresh
        assert self._verdict_grid(MIXED_PLAN.reseeded(99)) == self._verdict_grid(fresh)

    def test_reseed_carries_explicit_schedules_unchanged(self):
        from repro.faults.plan import ProcessCrash

        plan = FaultPlan(
            seed=1,
            drop_rate=0.4,
            lossy=frozenset({2}),
            slow=frozenset({3}),
            max_delay=0.25,
            resets=(ConnectionReset(tick=4, sender=0, receiver=1),),
            crashes=(ProcessCrash(pid=2, at_tick=3, restart_tick=6),),
        )
        reseeded = plan.reseeded(7)
        assert reseeded.seed == 7
        assert reseeded.resets == plan.resets
        assert reseeded.crashes == plan.crashes
        assert reseeded.lossy == plan.lossy
        assert reseeded.slow == plan.slow
        assert reseeded.faulty == plan.faulty

    def test_reseeded_runs_diverge_but_stay_safe(self, config5):
        """End-to-end: reseeds of the mixed plan really move the faults
        — the canonical trace stays identical (the protocol is robust
        to the perturbations, which is the point) but the word bill
        shifts with the dropped/duplicated messages — and every reseed
        still verifies."""
        bills = []
        for seed in (11, 12, 13, 14):
            plan = MIXED_PLAN.reseeded(seed)
            result = run_byzantine_broadcast(
                config5, sender=0, value="v",
                params=RunParameters(fault_plan=plan),
            )
            assert result.unanimous_decision() == "v"
            assert verify_under_plan(result, plan, expected_decision="v").ok
            bills.append(result.correct_words)
        assert len(set(bills)) > 1

    def test_soak_derive_instance_threads_one_seed(self):
        """The soak fleet's spec derivation stays coherent: the instance
        seed it draws is the seed its fault plan carries, so replaying
        ``(master_seed, index, profile)`` re-derives the same faults."""
        from repro.soak.plan import PROFILES, derive_instance

        profile = PROFILES["mixed"]
        spec = derive_instance(7, 3, profile)
        again = derive_instance(7, 3, profile)
        assert spec == again
        if spec.plan is not None:
            assert spec.plan.seed == spec.seed
        # A different index re-derives everything, not just the label.
        other = derive_instance(7, 4, profile)
        assert other.seed != spec.seed
