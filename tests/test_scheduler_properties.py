"""Property-based tests of the simulator's delivery semantics.

The synchronous model's guarantees — reliable links between correct
processes, delivery exactly one tick after sending, deterministic
ordering — are what every protocol proof stands on.  Fuzz them
directly with randomized send schedules.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import SystemConfig
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
    """The historical delivery implementation: one flat per-tick list of
    ``(delay, envelope)`` pairs, scanned and regrouped at delivery time.

    The receiver-slotted wheel replaced it; this subclass restores the
    old behavior through the wheel's three per-copy override points
    (``_slot_copies``, ``_pending_at``, ``_rushed_to``) so the
    equivalence property below can prove the swap is observationally
    invisible (byte-identical traces).  Those points are called only on
    the per-copy path, where a fault plan or a choice source acts: a
    run with neither slots whole multicasts and never reaches them.  So
    every flat-scan run here has a fault plan, ``FaultPlan(seed=0)``
    (all rates zero) standing in for "no faults"."""

    def _slot_copies(self, envelope, copies):
        for delay in copies:
            self._due.setdefault(self.tick + 1, []).append((delay, envelope))

    def _pending_at(self, tick, down):
        deliveries = self._due.pop(tick, [])
        if down:
            deliveries = [
                (delay, e) for delay, e in deliveries if e.receiver not in down
            ]
        pending = {}
        for delay, envelope in deliveries:
            pending.setdefault(envelope.receiver, []).append((delay, envelope))
        return pending

    def _rushed_to(self, pid):
        return [
            e for _, e in self._due.get(self.tick + 1, []) if e.receiver == pid
        ]


class TestSlottedWheelEquivalence:
    """The slotted delivery wheel must be a pure data-structure swap:
    same seeds, same faults, same adversary => byte-identical traces.

    The flat scan always runs per-copy (see :class:`FlatScanSimulation`),
    so the ``plan=None`` row compares the shipped fan-out path with the
    historical flat scan under a zero-rate plan."""

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
                        FlatScanSimulation, n, seed, plan or FaultPlan(seed=0),
                        byzantine,
                        tmp_path / f"flat{case}" if crashes else None,
                    )
                    assert wheel == flat, (n, byzantine, plan, seed)
                    case += 1

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

        def run_with(simulation_cls):
            config = SystemConfig.with_optimal_resilience(5)
            simulation = simulation_cls(config, seed=seed, fault_plan=plan)
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

        assert run_with(Simulation) == run_with(FlatScanSimulation)
