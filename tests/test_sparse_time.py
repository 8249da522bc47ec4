"""Sparse time (ISSUE 23): skipping idle rounds changes no observable.

Three independent lines of evidence:

* the golden pin ``tests/pins/sparse_time.json``, generated at the
  parent commit, reproduces exactly — traces, bills, tick numbers,
  ``halted_at``, WAL bytes;
* two test-only dense references agree with the shipped code on every
  table row: ``ProcessContext.idle`` patched to wait exactly one tick
  (every round is visited, nothing is skipped by any host), and a round
  driver that calls *every* step in every round (the loop the protocols
  used to be — which also checks, call by call, that a step on an empty
  pool is a no-op);
* unit cases for each clause of the waiting contract.
"""

import json
import random
from collections.abc import Mapping
from dataclasses import dataclass

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.adversary.behaviors import EchoBehavior, GarbageSpammer, SilentBehavior
from repro.config import RunParameters, SystemConfig
from repro.core import byzantine_broadcast_protocol, strong_ba, weak_ba
from repro.core.validity import ExternalValidity
from repro.core.weak_ba import weak_ba_protocol
from repro.errors import JoinError
from repro.faults import FaultPlan, ProcessCrash
from repro.obs import Observer
from repro.protocols import get_backend
from repro.protocols.table import PROTOCOLS, run_protocol, string_validity
from repro.recovery import RecoveryManager, replay_wal
from repro.runtime import ProcessContext, Simulation, rounds
from repro.runtime.concurrency import join
from tests.pins import make_sparse_pin as pin
from tests.test_timing_attacks import FuturePhaseSpammer, LateCertReleaser

PINS = json.loads(pin.PIN.read_text())
ROWS = sorted(PROTOCOLS)
VALIDITY = ExternalValidity(lambda v: isinstance(v, str))


def _observables(result):
    return (
        result.trace.canonical(),
        result.correct_words,
        result.ledger.signature_count(),
        [(r.tick, r.sender, r.receiver, r.payload_type) for r in result.ledger.records],
        result.ticks,
        sorted(result.decisions.items(), key=repr),
        sorted(result.halted_at.items()),
    )


# ----------------------------------------------------------------------
# The golden pin from the parent commit
# ----------------------------------------------------------------------


def _pinned(sizes):
    return [(name, n) for name in ROWS for n in sizes]


def _check_pinned(name, n):
    cases = [c for c in pin.cases() if c.startswith(f"{name}/{n}/")]
    assert cases
    for case in cases:
        assert pin.compute(case) == PINS[case], case


def test_pin_covers_every_case_and_nothing_else():
    assert sorted(PINS) == sorted(pin.cases())


@pytest.mark.parametrize("name,n", _pinned((5, 7)))
def test_parent_pin_reproduces(name, n):
    """n=5 includes the crash/WAL cases (``.wal`` bytes)."""
    _check_pinned(name, n)


@pytest.mark.slow
@pytest.mark.parametrize("name,n", _pinned((11, 17)))
def test_parent_pin_reproduces_at_larger_n(name, n):
    _check_pinned(name, n)


# ----------------------------------------------------------------------
# The gain itself: resumptions, counted
# ----------------------------------------------------------------------


class _Counted:
    """A generator proxy counting the host's ``next()`` calls."""

    def __init__(self, generator, box):
        self._generator, self._box = generator, box

    def __iter__(self):
        return self

    def __next__(self):
        self._box[0] += 1
        return next(self._generator)

    def close(self):
        self._generator.close()


@pytest.mark.parametrize("protocol", ["weak_ba", "bb", "civit_strong_ba"])
def test_failure_free_n101_decision_needs_few_resumptions(protocol):
    """The parent made 62k / 93k / 77k scheduler-level resumptions."""
    factory = {
        "weak_ba": lambda ctx: weak_ba_protocol(ctx, "v", VALIDITY),
        "bb": lambda ctx: byzantine_broadcast_protocol(ctx, 0, "v"),
        "civit_strong_ba": lambda ctx: get_backend("civit").strong_ba_protocol(ctx, 1),
    }[protocol]
    config = SystemConfig.with_optimal_resilience(101)
    simulation = Simulation(config, seed=3)
    resumptions = [0]
    for pid in config.processes:
        simulation.add_process(
            pid, lambda ctx: _Counted(factory(ctx), resumptions)
        )
    result = simulation.run()
    assert len(set(map(repr, result.decisions.values()))) == 1
    assert result.ticks > 600  # ticks are skipped, not renumbered
    assert resumptions[0] <= 3000


# ----------------------------------------------------------------------
# Dense references (test-only; nothing of the kind lives in src/)
# ----------------------------------------------------------------------


def _dense_idle(self, ticks):
    yield
    return self.inbox


def _every_round(ctx, pool, steps, end, leads=()):
    """The dense loop the protocols used to be: every step, every round.
    A step called on an empty pool outside ``leads`` must do nothing."""
    simulation = ctx._simulation
    leads = set(leads)
    start = now = ctx.now
    while now < end:
        r = now - start
        quiet = not pool and r not in leads
        before = (len(simulation.ledger.records), len(simulation.trace.events))
        moved = steps[r % len(steps)](r // len(steps) + 1)
        if quiet:
            after = (len(simulation.ledger.records), len(simulation.trace.events))
            assert after == before and not pool and moved in (None, end), (
                f"step {steps[r % len(steps)].__name__} acted on an empty pool"
            )
        if moved is not None:
            end = moved
        if now >= end:
            break
        yield
        pool.extend(ctx.inbox)
        now += 1


@pytest.fixture(params=["dense-idle", "every-step"])
def reference(request):
    """A context manager factory installing one dense reference."""

    def install(monkeypatch):
        if request.param == "dense-idle":
            monkeypatch.setattr(ProcessContext, "idle", _dense_idle)
        else:
            for module in (rounds, weak_ba, strong_ba):
                monkeypatch.setattr(module, "run_rounds", _every_round)

    return install


def _run_row(name, n, seed, f, variant, *, plan=None, scheduled=()):
    """One table-row run built by hand: Byzantine targets, scheduled
    corruptions and an optional fault plan."""
    config = pin._config(name, n)
    shielded = PROTOCOLS[name].shielded
    candidates = [p for p in config.processes if p not in shielded]
    targets = sorted(random.Random(seed).sample(candidates, f))
    metas = pin._metas(name, config, variant == "split")
    simulation = Simulation(
        config, seed=seed, fault_plan=plan, max_ticks=50_000
    )
    build = PROTOCOLS[name].build
    for pid in config.processes:
        if pid in targets:
            simulation.add_byzantine(pid, pin.BEHAVIORS[variant]())
        else:
            simulation.add_process(pid, build(metas[pid], validity=VALIDITY))
    for tick, pid, behavior in scheduled:
        if pid not in targets and pid not in shielded:
            simulation.schedule_corruption(tick, pid, behavior)
    return simulation.run()


@pytest.mark.parametrize("name", ROWS)
def test_every_row_matches_both_dense_references(name, reference, monkeypatch):
    cases = [(0, "silent"), (1, "silent"), (1, "echo"), (1, "garbage"),
             (pin._config(name, 5).t, "split")]
    sparse = [_observables(_run_row(name, 5, 1, f, v)) for f, v in cases]
    reference(monkeypatch)
    dense = [_observables(_run_row(name, 5, 1, f, v)) for f, v in cases]
    assert sparse == dense


@settings(
    max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    name=st.sampled_from(ROWS),
    n=st.sampled_from([5, 7]),
    seed=st.integers(0, 50),
    f=st.integers(0, 2),
    variant=st.sampled_from(sorted(pin.BEHAVIORS)),
    faults=st.sampled_from([
        None,
        dict(duplicate_rate=0.3, delay_rate=0.4),
        dict(duplicate_rate=0.2, delay_rate=0.3, reorder_rate=0.5),
        dict(reorder_rate=1.0),
    ]),
    corruption=st.one_of(
        st.none(),
        st.tuples(
            st.integers(0, 40), st.integers(1, 3),
            st.sampled_from([SilentBehavior, EchoBehavior, GarbageSpammer]),
        ),
    ),
)
def test_sparse_equals_dense(
    monkeypatch, name, n, seed, f, variant, faults, corruption
):
    """Patching ``idle`` to one tick makes the same protocol code visit
    every round on every host path; nothing observable may differ."""
    f = min(f, pin._config(name, n).t - (corruption is not None))
    plan = FaultPlan(seed=seed, **faults) if faults else None
    scheduled = [(corruption[0], corruption[1], corruption[2]())] if corruption else ()

    def run():
        extra = [(t, p, type(b)()) for t, p, b in scheduled]
        return _observables(
            _run_row(name, n, seed, f, variant, plan=plan, scheduled=extra)
        )

    sparse = run()
    with monkeypatch.context() as patch:
        patch.setattr(ProcessContext, "idle", _dense_idle)
        dense = run()
    assert sparse == dense


@pytest.mark.parametrize("adversary", ["late-release", "future-phases"])
def test_timing_adversaries_match_dense(adversary, reference, monkeypatch, config7):
    def run():
        simulation = Simulation(config7, seed=0)
        if adversary == "late-release":
            simulation.add_byzantine(5, LateCertReleaser(release_tick=40))
            simulation.add_byzantine(6, LateCertReleaser(release_tick=44))
        else:
            simulation.add_byzantine(3, FuturePhaseSpammer())
        for pid in config7.processes:
            if pid not in simulation.corrupted_now:
                simulation.add_process(
                    pid, lambda ctx: weak_ba_protocol(ctx, f"v{ctx.pid % 2}", VALIDITY)
                )
        return _observables(simulation.run())

    sparse = run()
    reference(monkeypatch)
    assert sparse == run()


# ----------------------------------------------------------------------
# The waiting contract, clause by clause
# ----------------------------------------------------------------------


def _pair(p0, p1, **options):
    """Run two hand-written generators as p0 and p1 of an n=3 system
    whose third process is silent (passive: it forces no tick)."""
    config = SystemConfig(n=3, t=1)
    simulation = Simulation(config, seed=0, **options)
    simulation.add_process(0, p0)
    simulation.add_process(1, p1)
    simulation.add_byzantine(2, SilentBehavior())
    return simulation, simulation.run()


def _sender(at_tick, payload="ping"):
    def protocol(ctx):
        yield from ctx.sleep(at_tick)
        ctx.send(1, payload)
        return ctx.now

    return protocol


@dataclass(frozen=True)
class _Tagged:
    """A payload carrying a ``session`` of any type."""

    session: object


class _Pairs(Mapping):
    """A mapping view of ``(key, value)`` pairs whose keys may repeat."""

    def __init__(self, pairs):
        self._pairs = pairs

    def __getitem__(self, key):
        return dict(self._pairs)[key]

    def __iter__(self):
        return (key for key, _ in self._pairs)

    def __len__(self):
        return len(self._pairs)


def _script(sends):
    """p0: send each ``(tick, payload)`` to p1 at its tick."""

    def protocol(ctx):
        for tick, payload in sends:
            yield from ctx.sleep(tick - ctx.now)
            ctx.send(1, payload)
        return ctx.now

    return protocol


class TestWaitingContract:
    def test_idle_returns_early_on_delivery_with_now_correct(self):
        seen = []

        def waiter(ctx):
            inbox = yield from ctx.idle(50)
            seen.append((ctx.now, [e.payload for e in inbox]))
            inbox = yield from ctx.idle(50)
            seen.append((ctx.now, list(inbox)))
            return "done"

        _, result = _pair(_sender(7), waiter)
        assert seen == [(8, ["ping"]), (58, [])]
        assert result.halted_at == {0: 7, 1: 58} and result.ticks == 59

    def test_sleep_collects_across_skipped_ticks(self):
        def chatty(ctx):
            for gap in (3, 10):
                yield from ctx.sleep(gap)
                ctx.send(1, f"at-{ctx.now}")
            return None

        def sleeper(ctx):
            got = yield from ctx.sleep(30)
            return ctx.now, [e.payload for e in got]

        resumed = [0]
        _, result = _pair(chatty, lambda ctx: _Counted(sleeper(ctx), resumed))
        assert result.decisions[1] == (30, ["at-3", "at-13"])
        assert resumed[0] == 4  # start, two deliveries, the deadline

    def test_sleep_zero_and_bare_yield(self):
        ticks = []

        def protocol(ctx):
            assert (yield from ctx.sleep(0)) == []
            ticks.append(ctx.now)
            yield
            ticks.append(ctx.now)
            yield ctx.now  # a deadline already past: still the next tick
            ticks.append(ctx.now)
            assert (yield from ctx.next_round()) == []
            ticks.append(ctx.now)
            return None

        _pair(protocol, protocol)
        assert ticks == [0, 0, 1, 1, 2, 2, 3, 3]

    def test_corruption_inside_a_skipped_span_lands_on_its_tick(self):
        def sleeper(ctx):
            yield from ctx.sleep(100)
            return "survived"

        config = SystemConfig(n=3, t=1)
        simulation = Simulation(config, seed=0)
        for pid in config.processes:
            simulation.add_process(pid, sleeper)
        simulation.schedule_corruption(40, 1, SilentBehavior())
        result = simulation.run()
        assert result.corrupted == frozenset({1})
        assert [e.tick for e in result.trace.named("corrupted")] == [40]
        assert result.decisions == {0: "survived", 2: "survived"}
        assert result.ticks == 101

    def test_crash_and_restart_inside_a_skipped_span(self, tmp_path):
        def protocol(ctx):
            if ctx.pid == 0:
                yield from ctx.sleep(2)
                ctx.broadcast("early")
                yield from ctx.sleep(58)
                ctx.broadcast("late")
                return "sent"
            got = yield from ctx.sleep(70)
            return ctx.now, [e.payload for e in got]

        config = SystemConfig(n=3, t=1)
        plan = FaultPlan(seed=0, crashes=(ProcessCrash(1, 20, 45),))
        simulation = Simulation(
            config, seed=0, fault_plan=plan, recovery=RecoveryManager(tmp_path)
        )
        resumed = [0]
        for pid in config.processes:
            counted = (lambda ctx: _Counted(protocol(ctx), resumed)) if pid == 1 else protocol
            simulation.add_process(pid, counted)
        result = simulation.run()
        assert [e.tick for e in result.trace.named("crashed")] == [20]
        assert [e.tick for e in result.trace.named("recovered")] == [45]
        # The rejoined generator kept its pending deadline (tick 70) and
        # the inbox it had logged before the crash.
        assert result.decisions[1] == (70, ["early", "late"])
        assert result.decisions[2] == (70, ["early", "late"])
        # Ticks 0 and 3 live, 0 and 3 again in replay, then 61 and 70:
        # the restart tick itself did not wake it.
        assert resumed[0] == 6
        report = replay_wal(tmp_path / "p1", factory=protocol)
        assert report.decided and report.decision == result.decisions[1]

    def test_horizon_reports_the_same_ticks_as_a_dense_run(self):
        def stuck(ctx):
            yield from ctx.sleep(10**9)

        config = SystemConfig(n=3, t=1)
        for dense in (False, True):
            simulation = Simulation(
                config, seed=0, max_ticks=500, stop_on_horizon=True
            )
            for pid in config.processes:
                simulation.add_process(pid, stuck)
            if dense:
                simulation.tick_hook = lambda sim, inboxes: None
            result = simulation.run()
            assert result.truncated and result.ticks == 501

    def test_join_wakes_only_due_branches(self):
        log = []

        def branch(name, naps):
            def run(ctx):
                for nap in naps:
                    yield from ctx.idle(nap)
                    log.append((name, ctx.now))
                return name

            return run

        def joined(ctx):
            return (
                yield from join(
                    ctx, {"a": branch("a", (5, 5))(ctx), "b": branch("b", (7,))(ctx)}
                )
            )

        resumed = [0]
        _, result = _pair(
            lambda ctx: _Counted(joined(ctx), resumed), _sender(100, "never-read")
        )
        assert result.decisions[0] == ["a", "b"]
        assert log == [("a", 5), ("b", 7), ("a", 10)]
        assert resumed[0] == 4  # start, then ticks 5, 7 and 10 only

    def test_join_routes_a_session_to_its_branch_alone(self):
        """Traffic for one key neither wakes nor reaches the other
        branch; traffic with no session, a non-``str`` one or one no
        branch owns reaches both."""
        seen, resumed = {}, {"x": [0], "y": [0]}

        def branch(ctx, name):
            got = yield from ctx.sleep(30)
            seen[name] = [e.payload for e in got]
            return name

        def joined(ctx):
            return (
                yield from join(
                    ctx,
                    {key: _Counted(branch(ctx, key), resumed[key]) for key in "xy"},
                )
            )

        mine, theirs = _Tagged("x/wba"), _Tagged("y")
        shared = ["plain", _Tagged(7), _Tagged(None), _Tagged("z"), _Tagged("xy")]
        sends = [(3, mine), (6, theirs), *((9 + i, p) for i, p in enumerate(shared))]
        _, result = _pair(_script(sends), joined)
        assert result.decisions[1] == ["x", "y"]
        assert seen == {"x": [mine, *shared], "y": [theirs, *shared]}
        # start, the own delivery, five shared deliveries, the deadline
        assert resumed == {"x": [8], "y": [8]}

    def test_join_never_routes_a_longer_slot_to_a_prefix(self):
        seen = {}

        def branch(ctx, name):
            got = yield from ctx.sleep(10)
            seen[name] = [e.payload.session for e in got]
            return name

        def joined(ctx):
            return (
                yield from join(
                    ctx, {key: branch(ctx, key) for key in ("smr/3", "smr/30")}
                )
            )

        sends = ["smr/30", "smr/30/wba", "smr/3/wba/afb", "smr/3"]
        _pair(_script([(1 + i, _Tagged(s)) for i, s in enumerate(sends)]), joined)
        assert seen == {
            "smr/3": ["smr/3/wba/afb", "smr/3"],
            "smr/30": ["smr/30", "smr/30/wba"],
        }

    def test_join_restores_the_hosts_inbox_when_a_branch_raises(self):
        def branch(ctx, name):
            yield from ctx.idle(10)
            if name == "x":
                raise RuntimeError(name)
            yield from ctx.idle(10)
            return name

        def joined(ctx):
            try:
                yield from join(ctx, {"x": branch(ctx, "x"), "y": branch(ctx, "y")})
            except RuntimeError:
                return [e.payload for e in ctx.inbox]

        both = [_Tagged("x"), _Tagged("y")]
        _, result = _pair(_script([(3, p) for p in both]), joined)
        assert result.decisions[1] == both

    @pytest.mark.parametrize(
        "keys", [("a", "a/b"), ("smr/3/wba", "smr/3"), ("a", "a"), ("a", 3)]
    )
    def test_join_refuses_sessions_without_a_single_owner(self, keys):
        branches = _Pairs([(key, iter(())) for key in keys])
        with pytest.raises(JoinError):
            next(join(None, branches))

    def test_observer_sees_visited_ticks_and_totals_elapsed_ones(self):
        class Recording(Observer):
            def __init__(self):
                super().__init__()
                self.visited = []

            def on_tick(self, tick):
                self.visited.append(tick)
                super().on_tick(tick)

        observer = Recording()
        _, result = _pair(_sender(40), _sender(3), observer=observer)
        assert observer.visited == sorted(set(observer.visited))
        assert len(observer.visited) < 10 < result.ticks
        # The clock stands at the last visited tick; RunResult.ticks is
        # the one record of the ticks elapsed.
        assert observer.time() == observer.visited[-1]
        assert result.ticks == 41

    def test_non_passive_behaviour_is_stepped_every_tick(self):
        from dataclasses import dataclass, field

        @dataclass
        class Ticker:
            seen: list = field(default_factory=list)

            def step(self, api):
                self.seen.append(api.now)

        config = SystemConfig(n=3, t=1)
        simulation = Simulation(config, seed=0)
        simulation.add_process(0, _sender(20))
        simulation.add_process(1, _sender(5))
        ticker = Ticker()
        simulation.add_byzantine(2, ticker)
        simulation.run()
        # (The adversary acts only while some correct process is live.)
        assert ticker.seen == list(range(20))


@pytest.mark.parametrize("name", ROWS)
def test_offline_replay_of_every_row_matches_the_live_decision(name, tmp_path):
    config = pin._config(name, 5)
    recovery = RecoveryManager(tmp_path)
    result = run_protocol(
        name, config, pin._metas(name, config, False), seed=4,
        params=RunParameters(seed=4, recovery=recovery),
        validity=string_validity,
    )
    for pid in config.processes:
        report = replay_wal(tmp_path / f"p{pid}")
        assert report.decided and report.decision == result.decisions[pid]
