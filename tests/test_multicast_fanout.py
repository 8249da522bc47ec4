"""Fan-out delivery equals per-copy delivery.

Under lockstep ``delta=1`` with no fault plan and no choice source that
can open a per-copy fault point the tick simulator slots each multicast
whole and, when the inboxes are built, hands one envelope to all of its
readers.  ``FaultPlan(seed=0)`` has every rate at zero, so it changes no
copy's fate, but its injector sends every copy down the per-copy path.
The two runs must agree on everything a run exposes: canonical trace,
bills, ticks, decisions, the recorded envelopes in send order and a
rushing adversary's view.  Model-checked runs over a fault-free choice
space must also agree with per-copy runs on their decision logs and
their state digests.
"""

import dataclasses

import pytest

from repro.adversary.behaviors import SilentBehavior
from repro.apps import ClientWorkload
from repro.apps.clients import assign_queues
from repro.config import SystemConfig
from repro.faults import FaultPlan
from repro.mc.choices import ChoiceSpace, ScriptedChoices, SeededChoices
from repro.mc.explore import _state_digest, _wheel
from repro.mc.scenario import ATTACKS, make_scenario
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


# ----------------------------------------------------------------------
# Under a choice source
# ----------------------------------------------------------------------
#
# A choice space with no drop budget, no duplicates and one delay level
# opens no per-copy choice point, so a model-checked run takes the
# fan-out path and draws only inbox orders, at delivery.  The reference
# space below keeps the run per-copy (a drop budget makes the scheduler
# build a fault injector) but scopes drops to no payload type, so it
# too opens no fault point: both must run the same schedules.

MC_CASES = [
    (name, "choose-silent")
    for name in sorted(PROTOCOLS)
    if PROTOCOLS[name].proposal is not None
] + sorted(ATTACKS)
DFS_RUNS = 6
WALKS = 50


def _mc_scenario(name, adversary):
    """The ``test_mc_rows.py`` scenario of a row, with inbox reordering,
    or one of the coalitions that send (whose low pids send after the
    correct processes, so first-send order is not sender order)."""
    if adversary != "choose-silent":
        size = dict(n=7, t=3) if adversary == "cert-dealer" else {}
        return make_scenario(name, adversary=adversary, perm_cap=2, **size)
    size = dict(n=5, t=1) if name == "phase_king" else dict(n=4)
    return make_scenario(
        name, adversary=adversary, corrupt_ticks=[0, 2],
        perm_cap=2, max_ticks=120, **size,
    )


def _per_copy(space):
    return dataclasses.replace(space, drop_budget=1, droppable_payloads=frozenset())


def _after_each_multicast(simulation, callback):
    """Call ``callback()`` after every multicast ``simulation`` files."""
    enqueue = simulation._enqueue

    def filing(*args, **kwargs):
        enqueue(*args, **kwargs)
        callback()

    simulation._enqueue = filing


def _checked_run(scenario, choices):
    """One schedule with recorded envelopes, the state digest at every
    tick and the digest and the wheel after every multicast (under
    lockstep the digest skips the wheel, empty when a tick is digested,
    and the wheel holds this tick's sends after a multicast)."""
    digests = []
    with scenario.active():
        simulation = scenario.build(choices)
        simulation.record_envelopes = True
        simulation.tick_hook = lambda sim, inboxes: digests.append(
            (sim.tick, _state_digest(sim, inboxes, choices))
        )
        _after_each_multicast(
            simulation,
            lambda: digests.append((
                _state_digest(simulation, {}, choices),
                _wheel(simulation, choices.payload_repr),
            )),
        )
        result = simulation.run()
    observables = (
        [(entry.point, entry.chosen) for entry in choices.log],
        result.trace.canonical(),
        result.ledger.bills,
        result.envelopes,
        result.decisions,
        result.ticks,
        digests,
    )
    return simulation, observables


def _both_paths(scenario, make_choices):
    """Run one schedule on both paths; return its decision log."""
    fanout, observed = _checked_run(scenario, make_choices(scenario.space))
    per_copy, reference = _checked_run(
        scenario, make_choices(_per_copy(scenario.space))
    )
    assert fanout._fanout and not per_copy._fanout
    assert observed == reference
    return observed[0]


@pytest.mark.parametrize("name, adversary", MC_CASES)
def test_fanout_equals_per_copy_under_a_choice_source(name, adversary):
    scenario = _mc_scenario(name, adversary)
    # The first DFS_RUNS schedules of the explorer's unpruned DFS.
    stack, runs = [()], 0
    while stack and runs < DFS_RUNS:
        prefix = stack.pop()
        log = _both_paths(scenario, lambda space: ScriptedChoices(space, prefix))
        runs += 1
        for j in range(len(prefix), len(log)):
            point, chosen = log[j]
            base = [c for _, c in log[:j]]
            stack += [tuple(base + [o]) for o in range(chosen + 1, point.options)]
    reordered = 0
    for seed in range(WALKS):
        log = _both_paths(scenario, lambda space: SeededChoices(space, seed))
        reordered += any(point.kind == "order" for point, _ in log)
    assert reordered, "no walk met an inbox-order choice point"


def test_checked_inboxes_meet_their_order_points_in_first_send_order():
    """p0 multicasts to (1, 3) before p1 multicasts to (2, 3), so the
    inbox-order points come as 1, 3, 2 on both paths; keying a fan-out
    entry by its first recipient alone would reach 2 before 3."""
    sends = {0: (1, 3), 1: (2, 3), 2: (1,), 3: (2,)}

    def protocol(pid):
        def run(ctx):
            ctx.multicast(sends[pid], f"m{pid}")
            yield
            return tuple(envelope.payload for envelope in ctx.inbox)

        return run

    logs, decisions = [], []
    for space in (ChoiceSpace(perm_cap=2), _per_copy(ChoiceSpace(perm_cap=2))):
        choices = SeededChoices(space, 1)
        simulation = Simulation(SystemConfig(n=4, t=1), choices=choices)
        for pid in sends:
            simulation.add_process(pid, protocol(pid))
        decisions.append(simulation.run().decisions)
        logs.append([(entry.point, entry.chosen) for entry in choices.log])
    assert [point.coords for point, _ in logs[0]] == [(1, 1), (3, 1), (2, 1)]
    assert logs[0] == logs[1]
    assert decisions[0] == decisions[1]


def test_a_real_fault_point_keeps_copies_apart():
    """A space that can drop, duplicate or delay a copy files every copy
    as its own wheel entry; a fault-free one files whole multicasts."""
    for space_params, fanout in ((dict(drop_budget=1), False), ({}, True)):
        scenario = make_scenario("weak-ba", **space_params)
        widths = set()
        with scenario.active():
            simulation = scenario.build(SeededChoices(scenario.space, 3))
            _after_each_multicast(simulation, lambda: widths.update(
                len(recipients)
                for entries in simulation._due.values()
                for _, _, recipients, _, _ in entries
            ))
            simulation.run()
        assert simulation._fanout is fanout
        assert scenario.space.opens_fault_points is not fanout
        assert (widths == {1}) is not fanout
