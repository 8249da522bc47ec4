"""Property-based tests of the simulator's delivery semantics.

The synchronous model's guarantees — reliable links between correct
processes, delivery exactly one tick after sending, deterministic
ordering — are what every protocol proof stands on.  Fuzz them
directly with randomized send schedules.
"""

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.config import SystemConfig
from repro.runtime.envelope import Envelope
from repro.runtime.scheduler import Simulation

scheduler_settings = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# A send schedule: list of (tick, sender, receiver, payload-id).
sends_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=6),   # tick
        st.integers(min_value=0, max_value=4),   # sender
        st.integers(min_value=0, max_value=4),   # receiver
        st.integers(min_value=0, max_value=99),  # payload id
    ),
    max_size=30,
)


def run_schedule(sends, horizon=10):
    """Every process follows the same script: send what the schedule
    says at each tick; log everything received."""
    config = SystemConfig.with_optimal_resilience(5)
    simulation = Simulation(config, seed=0)
    received: dict[int, list] = {pid: [] for pid in config.processes}

    by_tick_sender: dict[tuple, list] = {}
    for tick, sender, receiver, payload in sends:
        by_tick_sender.setdefault((tick, sender), []).append((receiver, payload))

    def protocol_for(pid):
        def protocol(ctx):
            for tick in range(horizon):
                for receiver, payload in by_tick_sender.get((tick, pid), []):
                    ctx.send(receiver, (pid, tick, payload))
                yield
                received[pid].extend(
                    (e.sender, e.payload, e.delivered_at) for e in ctx.inbox
                )
            return None

        return protocol

    for pid in config.processes:
        simulation.add_process(pid, protocol_for(pid))
    simulation.run()
    return received


class TestDeliverySemantics:
    @scheduler_settings
    @given(sends=sends_strategy)
    def test_reliable_exactly_once_delivery(self, sends):
        """Every scheduled send is delivered exactly once, at exactly
        tick+1, to exactly its addressee."""
        received = run_schedule(sends)
        expected: dict[int, list] = {pid: [] for pid in range(5)}
        for tick, sender, receiver, payload in sends:
            expected[receiver].append((sender, (sender, tick, payload), tick + 1))
        for pid in range(5):
            assert sorted(received[pid], key=repr) == sorted(
                expected[pid], key=repr
            )

    @scheduler_settings
    @given(sends=sends_strategy)
    def test_inbox_ordering_deterministic(self, sends):
        """Two identical runs produce byte-identical reception logs."""
        assert run_schedule(sends) == run_schedule(sends)

    @scheduler_settings
    @given(
        sends=sends_strategy,
        seed_a=st.integers(min_value=0, max_value=100),
    )
    def test_word_conservation(self, sends, seed_a):
        """Ledger total equals the number of scheduled cross-process
        sends (payloads here are 1 word; self-sends are free)."""
        config = SystemConfig.with_optimal_resilience(5)
        simulation = Simulation(config, seed=seed_a)
        by_tick_sender: dict[tuple, list] = {}
        for tick, sender, receiver, payload in sends:
            by_tick_sender.setdefault((tick, sender), []).append(
                (receiver, payload)
            )

        def protocol_for(pid):
            def protocol(ctx):
                for tick in range(8):
                    for receiver, payload in by_tick_sender.get((tick, pid), []):
                        ctx.send(receiver, payload)
                    yield
                return None

            return protocol

        for pid in config.processes:
            simulation.add_process(pid, protocol_for(pid))
        result = simulation.run()
        cross_sends = sum(1 for _, s, r, _ in sends if s != r)
        assert result.correct_words == cross_sends

class FlatScanSimulation(Simulation):
    """The historical delivery implementation, as an independent
    reference for :meth:`Simulation._deliver`: pop the tick's wheel
    entries, regroup their copies by receiver, then sort each inbox by
    ``(delay, sender)`` on its own.

    ``_deliver`` serves every path, fan-out included, so the
    equivalence properties below prove the single stable sort over a
    whole slot is observationally invisible (byte-identical traces)."""

    def _deliver(self, tick, readers):
        pending = {}
        for delay, sender, recipients, payload, sent_at in self._due.pop(tick, []):
            for to in recipients:
                if to in readers:
                    pending.setdefault(to, []).append(
                        (delay, Envelope(sender, to, payload, sent_at, tick))
                    )
        return {
            to: [e for _, e in sorted(copies, key=lambda de: (de[0], de[1].sender))]
            for to, copies in pending.items()
        }


class TestSlottedWheelEquivalence:
    """The slotted delivery wheel must be a pure data-structure swap:
    same seeds, same faults, same adversary => byte-identical traces,
    on the fan-out path (``plan=None``) and the per-copy one alike."""

    @staticmethod
    def _weak_ba_trace(
        simulation_cls, n, seed, fault_plan, byzantine_pids, wal_dir=None
    ):
        from repro.adversary.behaviors import SilentBehavior
        from repro.config import SystemConfig as SC
        from repro.core.validity import ExternalValidity
        from repro.core.weak_ba import weak_ba_protocol
        from repro.recovery import RecoveryManager

        config = SC.with_optimal_resilience(n)
        recovery = RecoveryManager(wal_dir) if wal_dir is not None else None
        simulation = simulation_cls(
            config, seed=seed, fault_plan=fault_plan, recovery=recovery
        )
        validity = ExternalValidity(lambda v: isinstance(v, str))
        for pid in config.processes:
            if pid in byzantine_pids:
                simulation.add_byzantine(pid, SilentBehavior())
            else:
                simulation.add_process(
                    pid, lambda ctx: weak_ba_protocol(ctx, "w", validity)
                )
        result = simulation.run()
        return result.trace.canonical(), result.correct_words

    def test_weak_ba_traces_identical_across_fault_grid(self, tmp_path):
        from repro.faults.plan import FaultPlan, ProcessCrash

        plans = [
            None,
            FaultPlan(seed=9, duplicate_rate=0.4, delay_rate=0.5),
            FaultPlan(
                seed=4,
                drop_rate=0.1,
                duplicate_rate=0.3,
                delay_rate=0.4,
                reorder_rate=0.5,
                lossy=frozenset({1}),
            ),
            FaultPlan(
                seed=2,
                duplicate_rate=0.5,
                delay_rate=0.5,
                crashes=(ProcessCrash(pid=0, at_tick=3, restart_tick=9),),
            ),
        ]
        case = 0
        for n, byzantine in ((3, ()), (5, (4,)), (7, (2, 5))):
            for plan in plans:
                for seed in (0, 3):
                    # Crash plans need a WAL to replay on restart; give
                    # each run its own so no state leaks between them.
                    crashes = plan is not None and plan.crashes
                    wheel = self._weak_ba_trace(
                        Simulation, n, seed, plan, byzantine,
                        tmp_path / f"wheel{case}" if crashes else None,
                    )
                    flat = self._weak_ba_trace(
                        FlatScanSimulation, n, seed, plan, byzantine,
                        tmp_path / f"flat{case}" if crashes else None,
                    )
                    assert wheel == flat, (n, byzantine, plan, seed)
                    case += 1

    @staticmethod
    def _fuzzed(simulation_cls, sends, seed, **nondeterminism):
        """Receptions, canonical trace and words of one fuzzed send
        schedule, with a fault plan or a choice source owning the run's
        nondeterminism."""
        config = SystemConfig.with_optimal_resilience(5)
        simulation = simulation_cls(config, seed=seed, **nondeterminism)
        received = {pid: [] for pid in config.processes}
        by_tick_sender = {}
        for tick, sender, receiver, payload in sends:
            by_tick_sender.setdefault((tick, sender), []).append(
                (receiver, payload)
            )

        def protocol_for(pid):
            def protocol(ctx):
                for tick in range(10):
                    for receiver, payload in by_tick_sender.get(
                        (tick, pid), []
                    ):
                        ctx.send(receiver, (pid, tick, payload))
                    yield
                    received[pid].extend(
                        (e.sender, e.payload, e.delivered_at)
                        for e in ctx.inbox
                    )
                return None

            return protocol

        for pid in config.processes:
            simulation.add_process(pid, protocol_for(pid))
        result = simulation.run()
        return received, result.trace.canonical(), result.correct_words

    @scheduler_settings
    @given(
        sends=sends_strategy,
        seed=st.integers(min_value=0, max_value=50),
        plan_seed=st.integers(min_value=0, max_value=50),
    )
    def test_randomized_schedules_identical_under_faults(
        self, sends, seed, plan_seed
    ):
        """Fuzzed send schedules under a heavy fault plan: both
        implementations log byte-identical receptions.  (Crash windows
        need a WAL directory, so they are covered by the grid test
        above, not re-fuzzed here.)"""
        from repro.faults.plan import FaultPlan

        plan = FaultPlan(
            seed=plan_seed,
            drop_rate=0.15,
            duplicate_rate=0.35,
            delay_rate=0.45,
            reorder_rate=0.5,
        )
        assert self._fuzzed(Simulation, sends, seed, fault_plan=plan) == (
            self._fuzzed(FlatScanSimulation, sends, seed, fault_plan=plan)
        )

    @scheduler_settings
    @given(sends=sends_strategy, walk=st.integers(min_value=0, max_value=50))
    # All-to-all for three ticks: a delayed copy from a low sender makes
    # a receiver's first send precede its first copy in delivery order.
    @example(
        sends=[(t, s, r, 0) for t in range(3) for s in range(5) for r in range(5)],
        walk=1,
    )
    def test_randomized_schedules_identical_under_choices(self, sends, walk):
        """The same under a model checker's choice source drawing drops,
        duplicates, delays and inbox orders: both implementations also
        meet the same choice points in the same order (first-send order
        of each tick's receivers), so a decision log replays on both."""
        from repro.mc.choices import ChoiceSpace, SeededChoices

        space = ChoiceSpace(drop_budget=2, max_duplicates=1, delay_levels=3)
        logs = []
        runs = []
        for simulation_cls in (Simulation, FlatScanSimulation):
            choices = SeededChoices(space, walk)
            runs.append(self._fuzzed(simulation_cls, sends, 0, choices=choices))
            logs.append(choices.log)
        assert runs[0] == runs[1]
        assert logs[0] == logs[1]
