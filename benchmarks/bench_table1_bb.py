"""Table 1, row "Byzantine Broadcast": upper bound O(n(f+1)).

Regenerates the row by measuring adaptive BB's words over an (n, f)
grid and fitting growth exponents:

* failure-free words grow ~linearly in n (slope ≈ 1, not 2);
* at fixed n, words grow with f but stay bounded by c·n(f+1) while
  f is below the fallback threshold;
* at f = t the quadratic fallback bound takes over, still O(n^2).
"""

from repro.adversary.protocol_attacks import BbVettingHelpSpammer
from repro.adversary.strategies import StaticStrategy
from repro.analysis.fitting import fit_slope_vs
from repro.analysis.sweeps import sweep
from repro.analysis.tables import render_points

from benchmarks._harness import publish

NS = (5, 9, 13, 17, 21)


def test_bb_failure_free_is_linear():
    points = sweep("bb", NS, fs=lambda c: [0])
    fit = fit_slope_vs(points, lambda p: p.n, lambda p: p.words)
    publish(
        "table1_bb_failure_free",
        render_points(points),
        f"log-log slope of words vs n (f=0): {fit.slope:.3f} "
        f"(paper: O(n(f+1)) -> 1.0), R^2={fit.r_squared:.4f}",
    )
    assert 0.8 < fit.slope < 1.3, f"BB f=0 should be ~linear, got {fit.slope}"
    for p in points:
        assert p.decision == "payload"
        assert not p.fallback_used


def test_bb_words_grow_linearly_in_f():
    """Against help-spamming leaders (the tight adversary), words at
    fixed n grow ~linearly with f inside the adaptive regime
    (f < (n-t-1)/2), and switch to the O(n^2) fallback regime above it
    — both regimes respecting the O(n(f+1)) ⊆ O(n^2) bound."""
    n = 21
    points = sweep(
        "bb",
        [n],
        fs=lambda c: range(0, c.t + 1, 2),
        strategy=StaticStrategy(
            behavior_factory=lambda pid: BbVettingHelpSpammer(),
            avoid=frozenset({0}),
        ),
    )
    adaptive = [p for p in points if not p.fallback_used]
    base = adaptive[0].words
    marginal = [
        (p.words - base) / (p.n * p.f) for p in adaptive if p.f > 0
    ]
    publish(
        "table1_bb_adaptivity",
        render_points(points),
        "marginal cost per failure, (words(f)-words(0))/(n*f): "
        + ", ".join(f"f={p.f}: {m:.3f}" for p, m in zip(adaptive[1:], marginal))
        + "\n(paper: O(n(f+1)) -> flat marginal cost in the adaptive regime; "
        "fallback regime above f=(n-t-1)/2 is O(n^2))",
    )
    # Adaptive regime: strictly growing, flat per-failure marginal cost.
    assert len(adaptive) >= 3
    words = [p.words for p in adaptive]
    assert words == sorted(words) and words[0] < words[-1]
    assert max(marginal) < 2 * min(marginal)
    # Fallback regime exists at f=t and stays within ~O(n^2).
    worst = [p for p in points if p.fallback_used]
    assert worst and all(p.words < 25 * n * n for p in worst)


def test_bb_worst_case_is_quadratic():
    """f = t silent: the fallback engages and the total stays O(n^2)."""
    points = sweep("bb", NS, fs=lambda c: [c.t])
    fit = fit_slope_vs(points, lambda p: p.n, lambda p: p.words)
    publish(
        "table1_bb_worst_case",
        render_points(points),
        f"log-log slope of words vs n (f=t): {fit.slope:.3f} "
        "(paper: O(n^2) worst case -> ~2.0)",
    )
    assert 1.6 < fit.slope < 2.4, f"BB f=t should be ~quadratic, got {fit.slope}"
    for p in points:
        assert p.fallback_used
