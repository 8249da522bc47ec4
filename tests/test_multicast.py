"""One bill per multicast: the ledger's aggregates, and every host path
the sparse-time pin does not reach, against a per-copy reference.

* A Hypothesis property drives :meth:`WordLedger.record` with random
  multicasts and checks every aggregate against its per-copy definition
  over the ``records`` view, through a ``save_run``/``load_run`` trip.
* The reference host splits every multicast into one-recipient calls
  (what the hosts did before bills existed).  Under paced ``gst:4``
  synchrony, under a drop/duplicate/delay fault plan and under the model
  checker's choice source it must be indistinguishable from the shipped
  code: same canonical trace, same records, same exploration stats.
* ``fallback_ba`` over asyncio and TCP bills exactly the copies the
  simulator bills.
"""

import asyncio
import dataclasses
import tempfile
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary.behaviors import SilentBehavior
from repro.analysis.export import load_run, save_run
from repro.asyncnet import run_async, run_over_tcp
from repro.asyncnet.runner import AsyncNetwork
from repro.config import RunParameters, SystemConfig
from repro.fallback import fallback_ba
from repro.faults import FaultPlan
from repro.mc.explore import explore_exhaustive
from repro.mc.scenario import make_scenario
from repro.metrics.words import WordLedger
from repro.protocols.table import PROTOCOLS, run_protocol, string_validity
from repro.runtime import Simulation
from repro.runtime.result import RunResult
from repro.runtime.synchrony import parse_synchrony
from repro.runtime.trace import Trace
from tests.pins import make_sparse_pin as pin

# ----------------------------------------------------------------------
# The ledger: bills against their per-copy definitions
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Payload:
    size: int
    sigs: int
    phase: int | None

    def words(self) -> int:
        return self.size

    def signatures(self) -> int:
        return self.sigs


N = 6
multicasts = st.lists(
    st.tuples(
        st.integers(0, 9),  # tick
        st.integers(0, N - 1),  # sender
        st.lists(st.integers(0, N - 1), max_size=N + 2),  # recipients
        st.one_of(
            st.just("bare"),
            st.builds(
                Payload,
                st.integers(1, 4),
                st.integers(0, 7),
                st.one_of(st.none(), st.integers(1, 5)),
            ),
        ),
        st.sampled_from(["bb", "bb/weak_ba", "fallback"]),
        st.booleans(),  # sender correct
    ),
    max_size=25,
)


def _per_copy(records, correct_only, key):
    totals = defaultdict(int)
    for r in records:
        if correct_only and not r.sender_correct:
            continue
        if key(r) is not None:
            totals[key(r)] += r.words
    return dict(totals)


def _aggregates(ledger):
    return (
        ledger.correct_words,
        ledger.total_words,
        ledger.correct_messages,
        ledger.signature_count(),
        ledger.signature_count(correct_only=False),
        *(
            getattr(ledger, f"words_by_{name}")(correct_only=c)
            for name in ("scope", "phase", "payload_type", "sender")
            for c in (True, False)
        ),
    )


@settings(max_examples=120, deadline=None)
@given(sends=multicasts)
def test_bill_aggregates_equal_their_per_copy_definitions(sends):
    ledger = WordLedger()
    for tick, sender, recipients, payload, scope, correct in sends:
        bill = ledger.record(
            tick=tick, sender=sender, receivers=recipients, payload=payload,
            scope=scope, sender_correct=correct,
        )
        others = [r for r in recipients if r != sender]
        assert (bill is None) == (not others)
        if bill is not None:
            assert bill.receivers == tuple(others) and bill is ledger.bills[-1]

    records = ledger.records
    assert [(r.tick, r.sender, r.receiver) for r in records] == [
        (tick, sender, r)
        for tick, sender, recipients, *_ in sends
        for r in recipients
        if r != sender
    ]
    correct = [r for r in records if r.sender_correct]
    assert ledger.correct_words == sum(r.words for r in correct)
    assert ledger.total_words == sum(r.words for r in records)
    assert ledger.correct_messages == len(correct)
    assert ledger.signature_count() == sum(r.signatures for r in correct)
    assert ledger.signature_count(correct_only=False) == sum(
        r.signatures for r in records
    )
    for c in (True, False):
        assert ledger.words_by_scope(c) == _per_copy(records, c, lambda r: r.scope)
        assert ledger.words_by_phase(c) == _per_copy(records, c, lambda r: r.phase)
        assert ledger.words_by_payload_type(c) == _per_copy(
            records, c, lambda r: r.payload_type
        )
        assert ledger.words_by_sender(c) == _per_copy(records, c, lambda r: r.sender)

    result = RunResult(
        config=SystemConfig(n=N, t=2), decisions={}, corrupted=frozenset(),
        ledger=ledger, trace=Trace(), ticks=10,
    )
    with tempfile.TemporaryDirectory() as scratch:
        loaded = load_run(save_run(result, Path(scratch) / "run.json"))
    assert loaded.ledger.records == records
    assert _aggregates(loaded.ledger) == _aggregates(ledger)


# ----------------------------------------------------------------------
# The per-copy reference host
# ----------------------------------------------------------------------


def _split(enqueue):
    def per_copy(host, sender, recipients, payload, *scope):
        for to in recipients:
            enqueue(host, sender, (to,), payload, *scope)

    return per_copy


@pytest.fixture
def per_copy_hosts(monkeypatch):
    """Install the reference: every host call carries one recipient."""

    def install():
        for host in (Simulation, AsyncNetwork):
            for name in ("enqueue_send", "enqueue_byzantine_send"):
                monkeypatch.setattr(host, name, _split(getattr(host, name)))

    return install


def _observables(result):
    return (
        result.trace.canonical(),
        result.ledger.records,
        result.ticks,
        sorted(result.decisions.items(), key=repr),
    )


def _run_row(name, *, synchrony=None, plan=None, n=5, seed=2):
    config = pin._config(name, n)
    shielded = PROTOCOLS[name].shielded
    silent = [p for p in config.processes if p not in shielded][-1:]
    metas = pin._metas(name, config, split=True)
    return run_protocol(
        name, config, {p: m for p, m in metas.items() if p not in silent},
        seed=seed, byzantine={p: SilentBehavior() for p in silent},
        params=RunParameters(
            seed=seed, synchrony=synchrony, fault_plan=plan, max_ticks=50_000
        ),
        validity=string_validity,
    )


CONDITIONS = {
    "gst:4": dict(synchrony=parse_synchrony("gst:4")),
    "drop+dup+delay": dict(
        plan=FaultPlan(
            seed=9, drop_rate=0.3, duplicate_rate=0.3, delay_rate=0.4,
            lossy=frozenset({1}),
        )
    ),
}


@pytest.mark.parametrize("condition", sorted(CONDITIONS))
@pytest.mark.parametrize("name", ["weak_ba", "bb", "recursive_ba", "strong_ba"])
def test_shipped_hosts_equal_the_per_copy_reference(name, condition, per_copy_hosts):
    shipped = _run_row(name, **CONDITIONS[condition])
    per_copy_hosts()
    reference = _run_row(name, **CONDITIONS[condition])
    assert max(b.copies for b in shipped.ledger.bills) > 1
    assert max(b.copies for b in reference.ledger.bills) == 1
    assert _observables(shipped) == _observables(reference)


def test_model_checker_explores_the_same_space(per_copy_hosts):
    def explore():
        scenario = make_scenario("weak-ba", n=4, t=1, max_ticks=12, perm_cap=3)
        result = explore_exhaustive(scenario, max_runs=100_000)
        return (
            dataclasses.asdict(result.stats), result.complete,
            len(result.counterexamples),
        )

    shipped = explore()
    assert shipped[0]["runs"] > 700 and shipped[1]
    per_copy_hosts()
    assert shipped == explore()


# ----------------------------------------------------------------------
# The wall-clock hosts bill what the simulator bills
# ----------------------------------------------------------------------


@pytest.mark.parametrize("runner", [run_async, run_over_tcp])
def test_fallback_ba_bills_the_simulator_copies_over_real_hosts(runner):
    config = SystemConfig.with_optimal_resilience(7)
    factories = {
        pid: (lambda ctx: fallback_ba(ctx, ctx.pid % 2)) for pid in config.processes
    }
    simulation = Simulation(config, seed=4)
    for pid, factory in factories.items():
        simulation.add_process(pid, factory)
    simulated = simulation.run()
    result = asyncio.run(runner(config, factories, seed=4, tick_duration=1.0))
    assert result.decisions == simulated.decisions
    assert result.trace.canonical() == simulated.trace.canonical()
    # Same-round tasks interleave on a wall clock: compare as multisets.
    assert Counter(result.ledger.records) == Counter(simulated.ledger.records)
    assert len(result.ledger.bills) == len(simulated.ledger.bills)
