"""Golden pin for the protocol-aware Byzantine attacks: what every leader
attack, certificate dealer and certifier coalition did at the parent of
the one-scripted-leader change.

``python tests/pins/make_attack_pins.py`` (with ``PYTHONPATH=src``)
rewrites ``attacks.json`` from whatever tree it is run in; it was run
once, on a checkout of the commit before the weak-BA leader attacks
were folded into one scripted leader, and ``tests/test_attack_pins.py``
asserts the current tree reproduces the file exactly.  Regenerate it
only when a change is *meant* to move what an attack does.

A run case is ``attack/n/seed``; an exploration case is
``explore/row/adversary/quorum_delta``.  A run pins the canonical
trace, the correct words and signatures, every bill of the run —
Byzantine senders' included —, the ticks, the decisions, ``halted_at``
and every envelope a Byzantine process sent (so a forged certificate
is pinned share for share); an exploration pins the explorer's stats
and the violation kinds of every counterexample it found.  Texts are
pinned by the first 16 hex digits of their sha256.

Only the last column, the Byzantine envelopes, was re-pinned when a
threshold signature traded its signer set for its quorum ``k`` and
committee scheme ids became fixed-width digests (``tests/pins/diff.py``
showed every other column, and every exploration, unmoved).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

from repro.adversary.behaviors import SilentBehavior
from repro.adversary.protocol_attacks import (
    FallbackCertDealer,
    StrongBaEquivocatingLeader,
    WeakBaCommitOnlyLeader,
    WeakBaEquivocatingLeader,
    WeakBaSplitFinalizeLeader,
    WeakBaTeasingLeader,
)
from repro.config import SystemConfig
from repro.core.strong_ba import strong_ba_protocol
from repro.core.validity import ExternalValidity
from repro.core.weak_ba import weak_ba_protocol
from repro.mc.explore import explore_exhaustive
from repro.mc.scenario import ATTACKS, make_scenario
from repro.protocols.civit.attacks import (
    CivitEquivocatingCertifier,
    CivitSplitCertifier,
)
from repro.protocols.table import PROTOCOLS, get_protocol
from repro.runtime.scheduler import Simulation

PIN = Path(__file__).with_name("attacks.json")

SIZES = (5, 7, 9, 11)
SEEDS = (0, 1)
VALIDITY = ExternalValidity(lambda value: isinstance(value, str))


def _ablated(config: SystemConfig) -> int:
    return config.t + 1


def _run(config, seed, byzantine, factory):
    """One run: ``byzantine`` behaviors, ``factory(pid)`` everywhere
    else, every sent envelope recorded."""
    simulation = Simulation(config, seed=seed, record_envelopes=True)
    for pid in config.processes:
        if pid in byzantine:
            simulation.add_byzantine(pid, byzantine[pid])
        else:
            simulation.add_process(pid, factory(pid))
    return simulation.run()


def _weak_ba(config, seed, byzantine, quorum=None, echo=True):
    return _run(config, seed, byzantine, lambda pid: lambda ctx: weak_ba_protocol(
        ctx, f"own-{pid}", VALIDITY, commit_quorum=quorum,
        echo_fallback_certificate=echo,
    ))


def _strong_ba(config, seed, inputs):
    return _run(
        config, seed, {0: StrongBaEquivocatingLeader()},
        lambda pid: lambda ctx: strong_ba_protocol(ctx, inputs(pid)),
    )


def _civit(config, seed, byzantine, quorum=None):
    build = PROTOCOLS["civit_strong_ba"].build
    return _run(config, seed, byzantine, lambda pid: build(
        {"input": pid % 2}, commit_quorum=quorum
    ))


def _cert_dealer(session="wba"):
    return {
        5: FallbackCertDealer(target=0, session=session),
        6: SilentBehavior(),
    }


RUNS = {
    "teasing": lambda c, s: _weak_ba(
        c, s, {p: WeakBaTeasingLeader(value="tease") for p in range(1, c.t + 1)}
    ),
    "commit-only": lambda c, s: _weak_ba(
        c, s, {1: WeakBaCommitOnlyLeader(value="locked")}
    ),
    "commit-only-twice": lambda c, s: _weak_ba(
        c, s, {1: WeakBaCommitOnlyLeader(value="first"),
               2: WeakBaCommitOnlyLeader(value="second")}
    ),
    "split-finalize": lambda c, s: _weak_ba(
        c, s, {1: WeakBaSplitFinalizeLeader(value="v", recipients=frozenset({2, 4}))}
    ),
    "equivocating-paper": lambda c, s: _weak_ba(
        c, s, {1: WeakBaEquivocatingLeader(
            value_a="evil-A", value_b="evil-B", quorum=c.commit_quorum)}
    ),
    "equivocating-ablated": lambda c, s: _weak_ba(
        c, s, {1: WeakBaEquivocatingLeader(
            value_a="evil-A", value_b="evil-B", quorum=_ablated(c))},
        quorum=_ablated(c),
    ),
    "cert-dealer": lambda c, s: _weak_ba(
        c, s, {1: WeakBaSplitFinalizeLeader(
            value="committed", recipients=frozenset({2, 4})), **_cert_dealer()}
    ),
    "cert-dealer-no-echo": lambda c, s: _weak_ba(
        c, s, {1: WeakBaSplitFinalizeLeader(
            value="committed", recipients=frozenset({2, 4})), **_cert_dealer()},
        echo=False,
    ),
    "sba-equivocator": lambda c, s: _strong_ba(c, s, lambda pid: pid % 2),
    "sba-equivocator-unanimous": lambda c, s: _strong_ba(c, s, lambda pid: 1),
    "civit-equivocating-paper": lambda c, s: _civit(
        c, s, {1: CivitEquivocatingCertifier(
            quorum=c.commit_quorum, num_views=c.t + 1)}
    ),
    "civit-equivocating-ablated": lambda c, s: _civit(
        c, s, {1: CivitEquivocatingCertifier(
            quorum=_ablated(c), num_views=c.t + 1)},
        quorum=_ablated(c),
    ),
    "civit-cert-dealer": lambda c, s: _civit(
        c, s, {1: CivitSplitCertifier(
            recipients=frozenset({2, 4}), num_views=c.t + 1),
            **_cert_dealer("civit/wba")}
    ),
}
"""Each attack's run: ``(config, seed) -> RunResult``."""

NEEDS_SEVEN = {"cert-dealer", "cert-dealer-no-echo", "civit-cert-dealer"}
"""Coalitions that corrupt p5 and p6, so they need ``n >= 7``."""

EXPLORATIONS = {
    ("weak-ba", "equivocating-leader"): dict(n=4, perm_cap=3, max_ticks=24),
    ("weak-ba", "cert-dealer"): dict(n=7, perm_cap=2),
    ("civit-strong-ba", "equivocating-certifier"): dict(
        n=4, perm_cap=3, max_ticks=30),
    ("civit-strong-ba", "cert-dealer"): dict(n=7, perm_cap=2),
}
"""Every :data:`repro.mc.scenario.ATTACKS` coalition, with the params
it is explored under."""

QUORUM_DELTAS = (0, -1)
MAX_RUNS = 300


def cases() -> list[str]:
    """Every case id, in file order."""
    ids = [
        f"{attack}/{n}/{seed}"
        for attack in RUNS
        for n in SIZES
        if n >= 7 or attack not in NEEDS_SEVEN
        for seed in SEEDS
    ]
    ids += [
        f"explore/{row}/{adversary}/{delta}"
        for row, adversary in EXPLORATIONS
        for delta in QUORUM_DELTAS
    ]
    return ids


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _explore(row: str, adversary: str, delta: int) -> list:
    scenario = make_scenario(
        row, adversary=adversary, quorum_delta=delta,
        **EXPLORATIONS[(row, adversary)],
    )
    result = explore_exhaustive(scenario, max_runs=MAX_RUNS)
    return [
        list(dataclasses.astuple(result.stats)),
        result.complete,
        sorted({kind for c in result.counterexamples for kind in c.kinds}),
    ]


def compute(case: str) -> list:
    """Run one case in the current tree and digest what it did."""
    if case.startswith("explore/"):
        _, row, adversary, delta = case.split("/")
        return _explore(row, adversary, int(delta))
    attack, n, seed = case.split("/")
    result = RUNS[attack](SystemConfig.with_optimal_resilience(int(n)), int(seed))
    return [
        _sha(repr(result.trace.canonical()).encode()),
        result.correct_words,
        result.ledger.signature_count(),
        _sha(repr(result.ledger.bills).encode()),
        result.ticks,
        _sha(repr(sorted(result.decisions.items(), key=repr)).encode()),
        _sha(repr(sorted(result.halted_at.items())).encode()),
        _sha(repr([
            (e.sender, receiver, e.sent_at, e.payload)
            for receiver, e in result.envelopes
            if e.sender in result.corrupted
        ]).encode()),
    ]


def write(path: Path = PIN) -> int:
    """Pin every case as the current tree runs it, one row per line."""
    assert set(EXPLORATIONS) == {
        (get_protocol(row).cli, adversary) for row, adversary in ATTACKS
    }
    rows = [f"{json.dumps(case)}: {json.dumps(compute(case))}" for case in cases()]
    path.write_text("{\n" + ",\n".join(rows) + "\n}\n")
    return len(rows)


if __name__ == "__main__":
    print(f"pinned {write()} cases -> {PIN}")
