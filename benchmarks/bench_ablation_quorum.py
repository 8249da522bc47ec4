"""Ablation: why the commit quorum must be ⌈(n+t+1)/2⌉.

Section 6's "first key observation": ``⌈(n+t+1)/2⌉`` signatures give
quorum intersection in a *correct* process, while ``n - t = t + 1``
does not (at ``n = 2t + 1``).  We ablate the quorum and attack both
configurations with an equivocating leader that drives two values
through its phase simultaneously:

* paper quorum -> the attack cannot assemble two commit certificates;
  agreement holds at every seed;
* ablated ``t+1`` quorum -> the attack finalizes both values and
  correct processes decide differently.
"""

from repro.adversary.protocol_attacks import WeakBaEquivocatingLeader
from repro.analysis.tables import format_table
from repro.config import SystemConfig
from repro.core.validity import ExternalValidity
from repro.core.weak_ba import weak_ba_protocol
from repro.errors import AgreementViolation
from repro.runtime.scheduler import Simulation

from benchmarks._harness import publish

VALIDITY = ExternalValidity(lambda v: isinstance(v, str))


def run_attacked(n: int, quorum: int, seed: int = 0):
    """Run weak BA with a quorum override under the equivocating-leader
    attack (leader = p1, everyone else correct with distinct inputs so
    neither attack value is 'the unanimous one')."""
    config = SystemConfig.with_optimal_resilience(n)
    simulation = Simulation(config, seed=seed)
    simulation.add_byzantine(
        1, WeakBaEquivocatingLeader(value_a="evil-A", value_b="evil-B",
                                    quorum=quorum)
    )
    for pid in config.processes:
        if pid == 1:
            continue
        simulation.add_process(
            pid,
            lambda ctx: weak_ba_protocol(
                ctx, "honest", VALIDITY, commit_quorum=quorum
            ),
        )
    return simulation.run()


def test_paper_quorum_resists_equivocating_leader():
    config = SystemConfig.with_optimal_resilience(7)
    rows = []
    for seed in range(5):
        result = run_attacked(7, config.commit_quorum, seed)
        decision = result.unanimous_decision()  # must not raise
        rows.append([seed, config.commit_quorum, "agreement", repr(decision)])
    publish(
        "ablation_quorum_paper",
        format_table(["seed", "quorum", "outcome", "decision"], rows),
        f"paper quorum ceil((n+t+1)/2) = {config.commit_quorum}: the "
        "equivocating leader never splits a decision.",
    )


def test_ablated_t_plus_one_quorum_breaks_agreement():
    config = SystemConfig.with_optimal_resilience(7)
    ablated = config.small_quorum  # t + 1 = n - t: no correct intersection
    rows = []
    split_observed = False
    for seed in range(5):
        result = run_attacked(7, ablated, seed)
        try:
            decision = result.unanimous_decision()
            rows.append([seed, ablated, "agreement", repr(decision)])
        except AgreementViolation as violation:
            split_observed = True
            rows.append([seed, ablated, "SPLIT", str(violation)[:60]])
    publish(
        "ablation_quorum_tplus1",
        format_table(["seed", "quorum", "outcome", "detail"], rows),
        f"ablated quorum t+1 = {ablated}: the same attack produces "
        "conflicting finalize certificates and correct processes decide "
        "differently — the intersection property is load-bearing.",
    )
    assert split_observed, "t+1 quorums must be attackable at n = 2t+1"


def test_full_quorum_sacrifices_adaptivity():
    """The other direction: quorum n is safe but a single silent
    process blocks every certificate, forcing the quadratic fallback —
    the paper's choice is the unique sweet spot."""
    from repro.adversary.behaviors import SilentBehavior

    config = SystemConfig.with_optimal_resilience(7)
    validity = lambda suite, cfg: ExternalValidity(lambda v: isinstance(v, str))

    def run_with_quorum(quorum):
        simulation = Simulation(config, seed=0)
        simulation.add_byzantine(3, SilentBehavior())
        for pid in config.processes:
            if pid == 3:
                continue
            simulation.add_process(
                pid,
                lambda ctx: weak_ba_protocol(
                    ctx, "v", VALIDITY, commit_quorum=quorum
                ),
            )
        return simulation.run()

    paper = run_with_quorum(config.commit_quorum)
    full = run_with_quorum(config.n)
    publish(
        "ablation_quorum_full",
        format_table(
            ["quorum", "fallback used", "words"],
            [
                [config.commit_quorum, paper.fallback_was_used(), paper.correct_words],
                [config.n, full.fallback_was_used(), full.correct_words],
            ],
        ),
        "f=1 silent: the paper quorum stays adaptive; quorum n falls "
        "back and pays the quadratic cost.",
    )
    assert paper.unanimous_decision() == "v"
    assert full.unanimous_decision() == "v"
    assert not paper.fallback_was_used()
    assert full.fallback_was_used()
    assert full.correct_words > 3 * paper.correct_words
