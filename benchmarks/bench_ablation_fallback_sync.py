"""Ablation: the echo-once rule for fallback certificates.

Section 6: "an adversary can form the fallback certificate and deal it
to only some correct processes ... We thus require a correct process
that receives a fallback certificate to broadcast it.  This ensures
that whenever one correct process runs the fallback algorithm, all of
them do [within delta]."

Attack setup (the paper's own scenario): a Byzantine split-finalize
leader leaves only two correct processes undecided (fewer than t+1
help requests), the adversary tops the certificate up with its own
shares and deals it to a single victim.

* with echoing -> every correct process enters the fallback, entry
  ticks within delta of each other, and agreement holds;
* echo ablated -> only the victim runs the fallback and decides its
  own stale value: agreement breaks.
"""

from repro.adversary.behaviors import SilentBehavior
from repro.adversary.protocol_attacks import (
    FallbackCertDealer,
    WeakBaSplitFinalizeLeader,
)
from repro.analysis.tables import format_table
from repro.config import SystemConfig
from repro.core.validity import ExternalValidity
from repro.core.weak_ba import weak_ba_protocol
from repro.runtime.scheduler import Simulation

from benchmarks._harness import publish

VALIDITY = ExternalValidity(lambda v: isinstance(v, str))


def run_dealt(echo: bool, seed: int = 0):
    """n=7, t=3.  Byzantine: p1 (split-finalize leader, finalizes only
    to p2 and p4), p5 (certificate dealer targeting p0), p6 (silent).
    Correct: p0, p2, p3, p4 — p0 and p3 stay undecided after the
    phases, so only 2 < t+1 honest help requests exist."""
    config = SystemConfig.with_optimal_resilience(7)
    simulation = Simulation(config, seed=seed)
    simulation.add_byzantine(
        1,
        WeakBaSplitFinalizeLeader(value="committed", recipients=frozenset({2, 4})),
    )
    simulation.add_byzantine(5, FallbackCertDealer(target=0))
    simulation.add_byzantine(6, SilentBehavior())
    for pid in (0, 2, 3, 4):
        simulation.add_process(
            pid,
            lambda ctx: weak_ba_protocol(
                ctx, "own-input", VALIDITY, echo_fallback_certificate=echo
            ),
        )
    return simulation.run()


def fallback_entries(result):
    return {
        e.pid: e.tick
        for e in result.trace.named("fallback_started")
        if e.pid not in result.corrupted
    }


def test_echo_synchronizes_fallback_entry():
    result = run_dealt(echo=True)
    entries = fallback_entries(result)
    decision = result.unanimous_decision()
    skew = max(entries.values()) - min(entries.values()) if entries else 0
    publish(
        "ablation_fallback_sync_with_echo",
        format_table(
            ["pid", "fallback entry tick"], sorted(entries.items())
        ),
        f"decision: {decision!r}; entry skew: {skew} tick(s) "
        "(paper: all correct processes enter within delta = 1 tick)",
    )
    assert set(entries) == {0, 2, 3, 4}, "echo must pull everyone in"
    assert skew <= 1
    assert decision == "committed"


def test_ablated_echo_strands_the_victim():
    """Without the echo, only the dealt-to victim enters the fallback:
    it runs the whole quadratic ``Afallback`` among processes that are
    not participating — an execution with *no honest majority of
    participants*, whose output is unsound.

    Agreement still holds in this run, but only because the help round
    already delivered the finalize certificate to the victim before the
    certificate was dealt (at ``n = 2t + 1`` an undecided-and-unhelped
    victim cannot exist, since all-correct-undecided implies ``t + 1``
    honest help requests and hence a certificate at everyone).  In the
    paper's non-halting model the echo is what upgrades this accident
    of timing into a guarantee; what the ablation *measures* is the
    broken synchronization: participation asymmetry plus the victim's
    wasted quadratic spend."""
    with_echo = run_dealt(echo=True)
    without_echo = run_dealt(echo=False)
    entries = fallback_entries(without_echo)
    decision = without_echo.unanimous_decision()  # rescued by help round
    victim_words = without_echo.ledger.words_by_sender().get(0, 0)
    others_words = [
        without_echo.ledger.words_by_sender().get(pid, 0) for pid in (2, 3, 4)
    ]
    publish(
        "ablation_fallback_sync_without_echo",
        format_table(
            ["pid", "fallback entry tick"], sorted(entries.items())
        ),
        f"only {sorted(entries)} entered the fallback (echo run: "
        f"{sorted(fallback_entries(with_echo))}); decision {decision!r} "
        "was rescued by the help round, not by the fallback.\n"
        f"victim words: {victim_words}; other correct processes: "
        f"{others_words} — the victim alone pays a fallback-scale bill "
        "for an unsound (no-honest-majority-participation) execution.",
    )
    assert set(entries) == {0}, "without echo only the victim enters"
    assert decision == "committed"
    assert victim_words > 2 * max(others_words)
