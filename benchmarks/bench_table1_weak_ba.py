"""Table 1, row "Weak BA": upper bound O(n(f+1)) multi-valued.

Measures Algorithm 3's words over (n, f): linear in n when failure
free, growing ~linearly in f against teasing leaders inside the
adaptive regime, quadratic once the fallback threshold is crossed.
"""

from repro.adversary.protocol_attacks import WeakBaTeasingLeader
from repro.adversary.strategies import StaticStrategy
from repro.analysis.fitting import fit_slope_vs
from repro.analysis.sweeps import sweep
from repro.analysis.tables import render_points

from benchmarks._harness import publish

NS = (5, 9, 13, 17, 21)


def test_weak_ba_failure_free_is_linear():
    points = sweep("weak_ba", NS, fs=lambda c: [0])
    fit = fit_slope_vs(points, lambda p: p.n, lambda p: p.words)
    publish(
        "table1_weak_ba_failure_free",
        render_points(points),
        f"log-log slope of words vs n (f=0): {fit.slope:.3f} "
        f"(paper: O(n(f+1)) -> 1.0), R^2={fit.r_squared:.4f}",
    )
    assert 0.8 < fit.slope < 1.3
    for p in points:
        assert p.decision == "proposal"
        assert not p.fallback_used
        assert p.non_silent_phases == 1


def test_weak_ba_adaptive_in_f():
    """Teasing Byzantine leaders make every Byzantine-led phase cost
    O(n) honest words: the marginal cost per failure stays flat."""
    n = 21
    points = sweep(
        "weak_ba",
        [n],
        fs=lambda c: range(0, 5),
        strategy=StaticStrategy(
            behavior_factory=lambda pid: WeakBaTeasingLeader(value="tease"),
            avoid=frozenset({0}),
        ),
    )
    adaptive = [p for p in points if not p.fallback_used]
    base = adaptive[0].words
    marginal = [(p.words - base) / (p.n * p.f) for p in adaptive if p.f > 0]
    publish(
        "table1_weak_ba_adaptivity",
        render_points(points),
        "marginal cost per failure (words(f)-words(0))/(n*f): "
        + ", ".join(f"f={p.f}: {m:.3f}" for p, m in zip(adaptive[1:], marginal)),
    )
    assert len(adaptive) >= 4
    words = [p.words for p in adaptive]
    assert words == sorted(words) and words[0] < words[-1]
    assert max(marginal) < 2.5 * min(marginal)


def test_weak_ba_worst_case_is_quadratic():
    points = sweep("weak_ba", NS, fs=lambda c: [c.t])
    fit = fit_slope_vs(points, lambda p: p.n, lambda p: p.words)
    publish(
        "table1_weak_ba_worst_case",
        render_points(points),
        f"log-log slope of words vs n (f=t): {fit.slope:.3f} "
        "(paper: O(n^2) worst case -> ~2.0)",
    )
    assert 1.6 < fit.slope < 2.4
    for p in points:
        assert p.fallback_used
