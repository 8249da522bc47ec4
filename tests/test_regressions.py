"""Regression tests for concrete bugs found (and fixed) during
development — each encodes the failure mode so it cannot quietly return.
"""

import asyncio

from repro.adversary.behaviors import SilentBehavior
from repro.asyncnet import run_async
from repro.core.byzantine_broadcast import (
    byzantine_broadcast_protocol,
    run_byzantine_broadcast,
)
from repro.core.strong_ba import run_strong_ba
from repro.core.validity import ExternalValidity
from repro.core.weak_ba import run_weak_ba, WbaHelpReq


class TestInfiniteWaitLoop:
    """Bug: ``ctx.now < float("inf")`` is always true, so decided
    processes waiting for a fallback certificate that never comes spun
    forever.  Fixed by handling the unset timer explicitly."""

    def test_weak_ba_terminates_without_fallback(self, config5):
        validity = lambda suite, cfg: ExternalValidity(
            lambda v: isinstance(v, str)
        )
        result = run_weak_ba(
            config5, {p: "v" for p in config5.processes}, validity
        )
        # Bounded run: phases + help rounds + grace, nowhere near max_ticks.
        assert result.ticks < 6 * config5.n + 15

    def test_strong_ba_terminates_without_fallback(self, config5):
        result = run_strong_ba(config5, {p: 1 for p in config5.processes})
        assert result.ticks < 15


class TestAsyncClockDrift:
    """Bug: per-task relative sleeps let heavy-working tasks drift a
    full round behind their peers, breaking the synchrony bound.  Fixed
    by one shared round clock (first absolute, now the completion
    clock: no boundary opens before every driver has parked at it)."""

    def test_async_word_bill_matches_simulator(self, config5):
        simulated = run_byzantine_broadcast(config5, sender=0, value="v")
        asynced = asyncio.run(
            run_async(
                config5,
                {
                    pid: (lambda ctx: byzantine_broadcast_protocol(ctx, 0, "v"))
                    for pid in config5.processes
                },
                tick_duration=0.03,
            )
        )
        assert asynced.correct_words == simulated.correct_words
        # Drift showed up as a *second* non-silent phase.
        assert asynced.trace.count("phase_non_silent") == 1


class TestPoolStranding:
    """Bug: a message delivered one scheduling beat early landed in the
    outer protocol's pool while the inner sub-protocol created a fresh
    one, stranding the message.  Fixed by sharing the pool downward."""

    def test_bb_threads_its_pool_into_weak_ba(self, config5):
        import inspect

        from repro.core import byzantine_broadcast as bb

        source = inspect.getsource(bb.byzantine_broadcast_protocol)
        assert "pool=pool" in source  # the weak-BA call shares the pool

    def test_smr_shares_one_pool_across_slots(self, config5):
        import inspect

        from repro.apps import smr

        source = inspect.getsource(smr.smr_replica_protocol)
        assert "pool=pool" in source


class TestQuorumDowngrade:
    """Bug class: verifying a certificate without pinning the expected
    quorum lets an adversary substitute a lower-threshold scheme of the
    same label.  ``verify_certificate`` pins label, k, and members."""

    def test_low_quorum_cert_rejected_by_strict_verification(self, config7, suite7):
        low = suite7.combine_certificate(
            "idk", 1, "stmt",
            [suite7.partial_for_certificate(3, "idk", 1, "stmt")],
        )
        assert low.verify(suite7)  # fine under its own scheme
        assert not suite7.verify_certificate(low, "idk", config7.small_quorum)


class TestSplitLeaderQuorumArithmetic:
    """Bug: the split-finalize attack only added the leader's own share,
    so with f = 3 it could not reach ⌈(n+t+1)/2⌉ and silently became a
    no-op (the ablation then measured nothing).  The attack now uses the
    whole coalition's shares."""

    def test_split_leader_effective_at_f_three(self, config7):
        from repro.adversary.protocol_attacks import WeakBaSplitFinalizeLeader
        from repro.runtime.scheduler import Simulation
        from repro.core.weak_ba import weak_ba_protocol

        validity = ExternalValidity(lambda v: isinstance(v, str))
        simulation = Simulation(config7, seed=0)
        simulation.add_byzantine(
            1,
            WeakBaSplitFinalizeLeader(
                value="split", recipients=frozenset({2, 4})
            ),
        )
        simulation.add_byzantine(5, SilentBehavior())
        simulation.add_byzantine(6, SilentBehavior())
        for pid in (0, 2, 3, 4):
            simulation.add_process(
                pid, lambda ctx: weak_ba_protocol(ctx, "own", validity)
            )
        result = simulation.run()
        # The attack must actually decide the recipients in-phase...
        assert result.trace.count("wba_decided_in_phase") >= 2
        # ...and agreement must still hold afterwards.
        assert result.unanimous_decision() == "split"


class TestHelpAnswerCost:
    """Section 6.1: 'the number of messages sent by correct processes is
    linear in the number of help requests' — Byzantine help_req spam
    costs the honest side O(n) words per requester, never O(n^2)."""

    def test_byzantine_help_requests_cost_linear_answers(self, config7):
        class HelpSpammer:
            def step(self, api):
                # Send a (valid) help request every tick after the phases.
                if api.now >= 6 * api.config.n:
                    partial = api.suite.partial_for_certificate(
                        api.pid,
                        f"wba-fb:wba",
                        api.config.small_quorum,
                        "start-fallback",
                    )
                    api.broadcast(WbaHelpReq(session="wba", partial=partial))

        validity = lambda suite, cfg: ExternalValidity(
            lambda v: isinstance(v, str)
        )
        byzantine = {3: HelpSpammer()}
        inputs = {p: "v" for p in config7.processes if p != 3}
        result = run_weak_ba(config7, inputs, validity, byzantine=byzantine)
        assert result.unanimous_decision() == "v"
        help_words = result.ledger.words_by_payload_type().get("WbaHelp", 0)
        # One answer per decided correct process per request tick seen,
        # bounded well below quadratic.
        assert 0 < help_words <= 3 * config7.n

class TestDuplicateDelayBilling:
    """Perf-bug audit (PR 6): could a duplicated wire copy of a message
    be billed twice when the duplicate is also delayed — in particular
    when the copies straddle a crash window?  The audit found the ledger
    bills at *send* time, once, before the fault injector multiplies the
    envelope into wire copies; these tests pin that accounting so a
    future refactor that bills per delivered copy fails loudly."""

    def _run_ping(self, plan, wal_dir=None):
        from repro.config import SystemConfig
        from repro.recovery import RecoveryManager
        from repro.runtime.scheduler import Simulation

        config = SystemConfig.with_optimal_resilience(3)
        recovery = RecoveryManager(wal_dir) if wal_dir is not None else None
        simulation = Simulation(
            config, seed=0, fault_plan=plan, recovery=recovery
        )
        received = {pid: 0 for pid in config.processes}

        def protocol_for(pid):
            def protocol(ctx):
                for tick in range(8):
                    if pid == 0 and tick < 2:
                        ctx.send(1, ("ping", tick))
                    yield
                    received[pid] += len(ctx.inbox)
                return None

            return protocol

        for pid in config.processes:
            simulation.add_process(pid, protocol_for(pid))
        result = simulation.run()
        return result, received

    def test_duplicated_delayed_message_billed_once(self):
        from repro.faults.plan import FaultPlan

        plan = FaultPlan(seed=1, duplicate_rate=1.0, delay_rate=1.0)
        result, received = self._run_ping(plan)
        # Two sends: two words on the ledger, however many wire copies.
        assert result.correct_words == 2
        assert received[1] > 2  # duplicates really did hit the wire

    def test_copies_lost_in_crash_window_still_billed_once(self, tmp_path):
        """Receiver is down for the whole delivery window: every wire
        copy (original, duplicates, delayed duplicates) is lost, yet the
        sender's bill is unchanged — exactly one word per send, never
        zero and never per-copy."""
        from repro.faults.plan import FaultPlan, ProcessCrash

        plan = FaultPlan(
            seed=1,
            duplicate_rate=1.0,
            delay_rate=1.0,
            crashes=(ProcessCrash(pid=1, at_tick=1, restart_tick=5),),
        )
        result, received = self._run_ping(plan, wal_dir=tmp_path)
        assert received[1] == 0  # both deliveries fell inside the window
        assert result.correct_words == 2
