"""Figure 1: the relation between the paper's solutions.

The figure shows the component nesting: Byzantine Broadcast uses weak
BA, which uses the quadratic fallback (Momose–Ren); the fast strong BA
uses the fallback directly.  This bench regenerates the diagram from
*measured traces*: every word a correct process sends is attributed to
its protocol-scope path, so the nesting and each layer's share of the
cost fall out of the ledger.
"""

from repro.adversary.behaviors import SilentBehavior
from repro.config import SystemConfig
from repro.core.byzantine_broadcast import run_byzantine_broadcast
from repro.core.strong_ba import run_strong_ba

from benchmarks._harness import publish


def composition_diagram(by_scope: dict[str, int]) -> str:
    total = sum(by_scope.values()) or 1
    lines = []
    for scope in sorted(by_scope):
        depth = scope.count("/")
        name = scope.rsplit("/", 1)[-1]
        share = 100 * by_scope[scope] / total
        lines.append(
            f"{'    ' * depth}└─ {name:<12} {by_scope[scope]:6d} words "
            f"({share:5.1f}%)"
        )
    return "\n".join(lines)


def test_bb_uses_weak_ba_uses_fallback():
    config = SystemConfig.with_optimal_resilience(9)

    adaptive = run_byzantine_broadcast(config, sender=0, value="v")
    byzantine = {p: SilentBehavior() for p in (1, 3, 5, 7)}
    degraded = run_byzantine_broadcast(
        config, sender=0, value="v", byzantine=byzantine
    )

    adaptive_scopes = adaptive.ledger.words_by_scope()
    degraded_scopes = degraded.ledger.words_by_scope()
    publish(
        "figure1_composition_bb",
        "Adaptive run (f=0):\n" + composition_diagram(adaptive_scopes),
        "Degraded run (f=t):\n" + composition_diagram(degraded_scopes),
        "Figure 1 reproduced: BB -> weak BA -> fallback(A_fallback); the "
        "fallback layer appears only in the degraded run and then "
        "dominates the cost.",
    )
    # Figure 1's arrows, as measured:
    assert set(adaptive_scopes) == {"bb", "bb/weak_ba"}
    assert "bb/weak_ba/fallback" in degraded_scopes
    fallback_words = sum(
        w for s, w in degraded_scopes.items() if "fallback" in s
    )
    assert fallback_words > degraded.correct_words / 2


def test_strong_ba_uses_fallback_directly():
    config = SystemConfig.with_optimal_resilience(9)
    quiet = run_strong_ba(config, {p: 1 for p in config.processes})
    degraded = run_strong_ba(
        config,
        {p: 1 for p in config.processes if p != 0},
        byzantine={0: SilentBehavior()},
    )
    quiet_scopes = quiet.ledger.words_by_scope()
    degraded_scopes = degraded.ledger.words_by_scope()
    publish(
        "figure1_composition_strong_ba",
        "Failure-free run:\n" + composition_diagram(quiet_scopes),
        "One-failure run:\n" + composition_diagram(degraded_scopes),
    )
    assert set(quiet_scopes) == {"strong_ba"}
    assert "strong_ba/fallback" in degraded_scopes
    # Strong BA never routes through weak BA (Figure 1's separate box).
    assert not any("weak_ba" in s for s in degraded_scopes)
