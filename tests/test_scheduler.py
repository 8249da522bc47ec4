"""Unit tests for the tick-based synchronous scheduler."""

import pytest

from repro.adversary.behaviors import SilentBehavior
from repro.config import SystemConfig
from repro.errors import SchedulerError, TerminationViolation
from repro.runtime.scheduler import Simulation


def idle(ticks):
    """A protocol that sleeps ``ticks`` ticks and returns its pid."""

    def factory(ctx):
        def protocol(ctx):
            for _ in range(ticks):
                yield
            return ctx.pid

        return protocol(ctx)

    return factory


class TestPopulation:
    def test_every_process_must_be_registered(self, config5):
        simulation = Simulation(config5)
        simulation.add_process(0, idle(1))
        with pytest.raises(SchedulerError):
            simulation.run()

    def test_double_registration_rejected(self, config5):
        simulation = Simulation(config5)
        simulation.add_process(0, idle(1))
        with pytest.raises(SchedulerError):
            simulation.add_process(0, idle(1))
        with pytest.raises(SchedulerError):
            simulation.add_byzantine(0, SilentBehavior())

    def test_out_of_range_pid_rejected(self, config5):
        simulation = Simulation(config5)
        with pytest.raises(SchedulerError):
            simulation.add_process(9, idle(1))

    def test_cannot_run_twice(self, config5):
        simulation = Simulation(config5)
        for pid in config5.processes:
            simulation.add_process(pid, idle(0))
        simulation.run()
        with pytest.raises(SchedulerError):
            simulation.run()


class TestDelivery:
    def test_message_delivered_next_tick(self, config5):
        log = {}

        def sender(ctx):
            ctx.send(1, "ping")
            yield
            return None

        def receiver(ctx):
            yield
            log["inbox"] = [(e.sender, e.payload, e.delivered_at) for e in ctx.inbox]
            return None

        simulation = Simulation(config5)
        simulation.add_process(0, sender)
        simulation.add_process(1, receiver)
        for pid in (2, 3, 4):
            simulation.add_process(pid, idle(1))
        simulation.run()
        assert log["inbox"] == [(0, "ping", 1)]

    def test_sender_id_is_stamped_not_spoofable(self, config5):
        """Envelopes carry the true sender — channel authentication."""
        seen = {}

        def byz_like_sender(ctx):
            ctx.send(1, ("fake-from", 4))
            yield
            return None

        def receiver(ctx):
            yield
            seen["senders"] = [e.sender for e in ctx.inbox]
            return None

        simulation = Simulation(config5)
        simulation.add_process(0, byz_like_sender)
        simulation.add_process(1, receiver)
        for pid in (2, 3, 4):
            simulation.add_process(pid, idle(1))
        simulation.run()
        assert seen["senders"] == [0]

    def test_inbox_sorted_by_sender(self, config5):
        seen = {}

        def sender(ctx):
            ctx.send(0, f"from-{ctx.pid}")
            yield
            return None

        def receiver(ctx):
            yield
            seen["order"] = [e.sender for e in ctx.inbox]
            return None

        simulation = Simulation(config5)
        simulation.add_process(0, receiver)
        for pid in (1, 2, 3, 4):
            simulation.add_process(pid, sender)
        simulation.run()
        assert seen["order"] == [1, 2, 3, 4]

    def test_broadcast_includes_self_delivery(self, config5):
        seen = {}

        def caster(ctx):
            ctx.broadcast("hello")
            yield
            seen["self"] = [e.payload for e in ctx.inbox if e.sender == ctx.pid]
            return None

        simulation = Simulation(config5)
        simulation.add_process(0, caster)
        for pid in (1, 2, 3, 4):
            simulation.add_process(pid, idle(1))
        simulation.run()
        assert seen["self"] == ["hello"]

    def test_self_delivery_costs_no_words(self, config5):
        def caster(ctx):
            ctx.broadcast("hello")
            yield
            return None

        simulation = Simulation(config5)
        simulation.add_process(0, caster)
        for pid in (1, 2, 3, 4):
            simulation.add_process(pid, idle(1))
        result = simulation.run()
        assert result.correct_words == config5.n - 1

    def test_all_to_all_rounds_bill_every_copy_but_self(self):
        """n^2 envelopes per round through the scheduler: each of ``n``
        processes broadcasting for 10 rounds bills ``n - 1`` words per
        broadcast."""
        config = SystemConfig.with_optimal_resilience(21)

        def chatter(ctx):
            for _ in range(10):
                ctx.broadcast(("ping", ctx.now))
                yield
            return ctx.pid

        simulation = Simulation(config)
        for pid in config.processes:
            simulation.add_process(pid, chatter)
        result = simulation.run()
        assert result.correct_words == 21 * 20 * 10
        assert result.decisions == {pid: pid for pid in config.processes}


class TestDecisionsAndTermination:
    def test_return_values_become_decisions(self, config5):
        simulation = Simulation(config5)
        for pid in config5.processes:
            simulation.add_process(pid, idle(pid))
        result = simulation.run()
        assert result.decisions == {p: p for p in config5.processes}
        assert result.halted_at == {p: p for p in config5.processes}

    def test_max_ticks_enforced(self, config5):
        def forever(ctx):
            while True:
                yield

        simulation = Simulation(config5, max_ticks=10)
        for pid in config5.processes:
            simulation.add_process(pid, forever)
        with pytest.raises(TerminationViolation):
            simulation.run()


class TestByzantine:
    def test_byzantine_words_not_counted_as_correct(self, config5):
        class Chatter:
            def step(self, api):
                api.broadcast("spam")

        simulation = Simulation(config5)
        simulation.add_byzantine(0, Chatter())
        for pid in (1, 2, 3, 4):
            simulation.add_process(pid, idle(2))
        result = simulation.run()
        assert result.correct_words == 0
        assert result.ledger.total_words > 0
        assert result.f == 1

    def test_rushing_visibility(self, config5):
        """The adversary sees honest tick-T sends to it during tick T."""
        rushed_log = []

        class Rusher:
            def step(self, api):
                rushed_log.extend(
                    (api.now, e.sender, e.payload) for e in api.rushed
                )

        def sender(ctx):
            ctx.send(0, "early")
            yield
            return None

        simulation = Simulation(config5)
        simulation.add_byzantine(0, Rusher())
        simulation.add_process(1, sender)
        for pid in (2, 3, 4):
            simulation.add_process(pid, idle(1))
        simulation.run()
        assert (0, 1, "early") in rushed_log

    def test_scheduled_corruption_silences_process(self, config5):
        """Adaptive adversary: a process crashes mid-protocol."""

        def talker(ctx):
            for _ in range(5):
                ctx.broadcast(f"tick-{ctx.now}")
                yield
            return "done"

        simulation = Simulation(config5)
        for pid in config5.processes:
            simulation.add_process(pid, talker)
        simulation.schedule_corruption(2, 3, SilentBehavior())
        result = simulation.run()
        assert 3 in result.corrupted
        assert 3 not in result.decisions
        # Process 3 sent at ticks 0 and 1 only.
        sends_by_3 = [r for r in result.ledger.records if r.sender == 3]
        assert {r.tick for r in sends_by_3} == {0, 1}
        # Its pre-corruption sends count as correct-process words.
        assert all(r.sender_correct for r in sends_by_3)

    def test_corruption_of_already_byzantine_rejected(self, config5):
        simulation = Simulation(config5)
        simulation.add_byzantine(0, SilentBehavior())
        for pid in (1, 2, 3, 4):
            simulation.add_process(pid, idle(1))
        simulation.schedule_corruption(1, 0, SilentBehavior())
        with pytest.raises(SchedulerError):
            simulation.run()


def _slotted(simulation):
    """Wire copies waiting in the delivery wheel: each entry is a whole
    multicast (fan-out) or a single copy (per-copy)."""
    return sum(
        len(recipients)
        for slot in simulation._due.values()
        for _, _, recipients, _, _ in slot
    )


@pytest.mark.parametrize("plan", [None, "zero-rate"], ids=["fanout", "per-copy"])
class TestUnknownRecipients:
    """A send to a pid outside the run raises before it is billed or
    put on the wire; the multicast before it is untouched."""

    @staticmethod
    def _run(config, plan, *, bad=None, behavior=None):
        """p0 multicasts ``"ok"`` to (1, 2), then ``"bad"`` to ``bad``;
        or p0 is ``behavior`` and steps after p1..p4 sent their "ok"."""
        from repro.faults.plan import FaultPlan

        simulation = Simulation(
            config,
            fault_plan=FaultPlan(seed=0) if plan else None,
            record_envelopes=True,
        )

        def protocol(ctx):
            ctx.multicast((1, 2), "ok")
            if ctx.pid == 0:
                ctx.multicast(bad, "bad")
            yield
            return None

        for pid in config.processes:
            if pid == 0 and behavior is not None:
                simulation.add_byzantine(0, behavior)
            else:
                simulation.add_process(pid, protocol)
        with pytest.raises(SchedulerError, match="send to unknown process"):
            simulation.run()
        senders = [1, 2, 3, 4] if behavior is not None else [0]
        assert [(b.sender, b.payload_type) for b in simulation.ledger.bills] == [
            (pid, "str") for pid in senders
        ]
        assert [e.payload for _, e in simulation.envelopes] == ["ok"] * 2 * len(senders)
        assert _slotted(simulation) == 2 * len(senders)

    def test_correct_process_multicasting_past_the_last_pid(self, config5, plan):
        self._run(config5, plan, bad=(0, config5.n))

    def test_byzantine_send_to_negative_pid(self, config5, plan):
        class Stray:
            def step(self, api):
                api.send(-1, "bad")

        self._run(config5, plan, behavior=Stray())

    @pytest.mark.parametrize("pid", ["1", 1.0, True, None])
    def test_non_int_pid(self, config5, plan, pid):
        """``1.0`` and ``True`` equal a real pid, yet are not one."""
        self._run(config5, plan, bad=(2, pid))


class TestDeterminism:
    def test_same_seed_same_run(self, config5):
        def noisy(ctx):
            for _ in range(3):
                ctx.send(ctx.rng.randrange(config_n), ("r", ctx.rng.random()))
                yield
            return ctx.rng.random()

        config_n = config5.n

        def run(seed):
            simulation = Simulation(config5, seed=seed)
            for pid in config5.processes:
                simulation.add_process(pid, noisy)
            result = simulation.run()
            return (
                result.decisions,
                [(r.tick, r.sender, r.receiver) for r in result.ledger.records],
            )

        assert run(11) == run(11)
        assert run(11) != run(12)


class TestConstructorValidation:
    def test_max_ticks_must_be_positive(self, config5):
        with pytest.raises(SchedulerError, match="max_ticks"):
            Simulation(config5, max_ticks=0)
        with pytest.raises(SchedulerError, match="max_ticks"):
            Simulation(config5, max_ticks=-5)

    def test_seed_must_be_an_int(self, config5):
        with pytest.raises(SchedulerError, match="seed"):
            Simulation(config5, seed="42")
        with pytest.raises(SchedulerError, match="seed"):
            Simulation(config5, seed=1.5)
        # bools are ints in Python but almost certainly a caller bug.
        with pytest.raises(SchedulerError, match="seed"):
            Simulation(config5, seed=True)

    def test_choices_excludes_other_nondeterminism_owners(self, config5):
        from repro.faults.plan import FaultPlan
        from repro.mc.choices import CLOSED_SPACE, SeededChoices

        with pytest.raises(SchedulerError, match="exclusive"):
            Simulation(
                config5,
                choices=SeededChoices(CLOSED_SPACE, 0),
                fault_plan=FaultPlan(seed=0, drop_rate=0.1, lossy=frozenset([1])),
            )
        with pytest.raises(SchedulerError, match="exclusive"):
            Simulation(
                config5,
                choices=SeededChoices(CLOSED_SPACE, 0),
                fault_plan=FaultPlan(seed=0, reorder_rate=1.0),
            )
