"""Fan-out delivery equals per-copy delivery.

Under lockstep ``delta=1`` with no fault plan and no choice source the
tick simulator slots each multicast whole and, when the inboxes are
built, hands one envelope to all of its readers.  ``FaultPlan(seed=0)`` has
every rate at zero, so it changes no copy's fate, but its injector
sends every copy down the per-copy path.  The two runs must agree on
everything a run exposes: canonical trace, bills, ticks, decisions,
the recorded envelopes in send order and a rushing adversary's view.
"""

import pytest

from repro.adversary.behaviors import SilentBehavior
from repro.apps import ClientWorkload
from repro.apps.clients import assign_queues
from repro.config import SystemConfig
from repro.faults import FaultPlan
from repro.protocols.table import PROTOCOLS
from repro.runtime import Simulation
from tests.test_sparse_time import VALIDITY

SEED = 5


def _config(name, n):
    # Phase king needs n >= 4t + 1; every other row tolerates t < n / 2.
    return SystemConfig(n=n, t=(n - 1) // (4 if name == "phase_king" else 2))


def _metas(name, config):
    entry = PROTOCOLS[name]
    if entry.proposal is not None:
        return entry.metas(config.processes, entry.proposal)
    if name == "smr":
        return {
            p: {"num_slots": 2, "commands": (("set", f"k{p}", p),)}
            for p in config.processes
        }
    queues = assign_queues(
        [
            ClientWorkload("a", (("set", "x", 1), ("set", "y", 2)), (0, 1, 2)),
            ClientWorkload("b", (("set", "z", 3), ("del", "x")), (1, 2, 3)),
        ],
        config,
    )
    shape = {"num_slots": 2, "batch_size": 2}
    if name == "pipelined_smr":
        shape = {"num_slots": 3, "window": 2, "batch_size": 2}
    return {p: {**shape, "queue": tuple(queues[p])} for p in config.processes}


def _cases():
    for name in sorted(PROTOCOLS):
        for n in (4, 7, 13):
            for f in sorted({0, 1, _config(name, n).t}):
                yield name, n, f


def _simulation(name, n, f, plan, behavior=SilentBehavior, simulation_cls=Simulation):
    config = _config(name, n)
    shielded = PROTOCOLS[name].shielded
    targets = [p for p in reversed(config.processes) if p not in shielded][:f]
    metas = _metas(name, config)
    simulation = simulation_cls(
        config, seed=SEED, fault_plan=plan, record_envelopes=True,
        max_ticks=50_000,
    )
    build = PROTOCOLS[name].build
    behaviors = {}
    for pid in config.processes:
        if pid in targets:
            behaviors[pid] = behavior()
            simulation.add_byzantine(pid, behaviors[pid])
        else:
            simulation.add_process(pid, build(metas[pid], validity=VALIDITY))
    return simulation, behaviors


def _run(name, n, f, plan, behavior=SilentBehavior):
    simulation, behaviors = _simulation(name, n, f, plan, behavior)
    return simulation.run(), behaviors


def _observables(result):
    return (
        result.trace.canonical(),
        result.ledger.bills,
        result.ticks,
        result.decisions,
        result.halted_at,
        result.envelopes,
    )


@pytest.mark.parametrize("name,n,f", list(_cases()))
def test_fanout_equals_per_copy_delivery(name, n, f):
    fanout, _ = _run(name, n, f, None)
    per_copy, _ = _run(name, n, f, FaultPlan(seed=0))
    assert fanout.envelopes, "the run sent nothing"
    assert _observables(fanout) == _observables(per_copy)


def _fields(envelope):
    """An envelope's four fields: a copy's receiver is the inbox it is in."""
    return (
        envelope.sender, envelope.payload, envelope.sent_at, envelope.delivered_at
    )


class _Witness:
    """A non-passive Byzantine process that logs its whole view every
    tick (what was delivered to it, what was rushed to it) and echoes
    each delivered payload to everyone, so its own multicasts ride the
    same wheel."""

    def __init__(self):
        self.log = []

    def step(self, api):
        self.log.append(
            (api.now, tuple(map(_fields, api.inbox)), tuple(map(_fields, api.rushed)))
        )
        for envelope in api.inbox:
            if envelope.sender not in api.corrupted:
                api.broadcast(envelope.payload)


@pytest.mark.parametrize("name", ["weak_ba", "strong_ba", "bb"])
def test_rushing_view_is_the_same_on_both_paths(name):
    fanout, seen_fanout = _run(name, 7, 2, None, _Witness)
    per_copy, seen_per_copy = _run(name, 7, 2, FaultPlan(seed=0), _Witness)
    assert _observables(fanout) == _observables(per_copy)
    logs = {pid: b.log for pid, b in seen_fanout.items()}
    assert logs == {pid: b.log for pid, b in seen_per_copy.items()}
    assert any(rushed for log in logs.values() for _, _, rushed in log)
    assert any(inbox for log in logs.values() for _, inbox, _ in log)


class _InboxRecorder(Simulation):
    """Records, per delivered wheel entry, the envelopes its reading
    recipients got, and every inbox field for field."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.copies = []
        self.inboxes = []

    def _deliver(self, tick, readers):
        entries = sorted(self._due.get(tick, ()), key=lambda e: (e[0], e[1]))
        inboxes = super()._deliver(tick, readers)
        cursor = dict.fromkeys(inboxes, 0)
        for _, sender, recipients, payload, sent_at in entries:
            held = []
            for to in recipients:
                if to in readers:
                    held.append(inboxes[to][cursor[to]])
                    cursor[to] += 1
            if held:
                self.copies.append((sender, payload, sent_at, tick, held))
        self.inboxes.append((tick, sorted(
            (pid, list(map(_fields, box))) for pid, box in inboxes.items()
        )))
        return inboxes


@pytest.mark.parametrize("name", ["weak_ba", "strong_ba", "bb", "recursive_ba"])
def test_every_reader_of_a_multicast_holds_the_same_envelope(name):
    """Fan-out delivery builds one envelope per multicast and hands that
    object to every reader; the per-copy path builds one per wire copy.
    Either way the inboxes agree field for field."""
    runs = {}
    for path, plan in (("fanout", None), ("per_copy", FaultPlan(seed=0))):
        simulation, _ = _simulation(
            name, 7, 2, plan, simulation_cls=_InboxRecorder
        )
        simulation.run()
        runs[path] = simulation
    for simulation in runs.values():
        for sender, payload, sent_at, tick, held in simulation.copies:
            assert len({id(e) for e in held}) == 1
            envelope = held[0]
            assert envelope.sender == sender and envelope.payload is payload
            assert (envelope.sent_at, envelope.delivered_at) == (sent_at, tick)
    assert any(len(held) > 1 for *_, held in runs["fanout"].copies)
    assert all(len(held) == 1 for *_, held in runs["per_copy"].copies)
    assert runs["fanout"].inboxes == runs["per_copy"].inboxes
