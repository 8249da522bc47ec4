"""Table 1, row "Strong BA, O(n) with f=0 (binary)": Algorithm 5.

The paper's headline for Section 7: linear words in the failure-free
case, quadratic otherwise.  This bench regenerates both branches and
the jump between them.
"""

from repro.analysis.fitting import fit_slope_vs
from repro.analysis.sweeps import sweep
from repro.analysis.tables import render_points

from benchmarks._harness import publish

NS = (5, 9, 17, 33)


def test_strong_ba_failure_free_linear():
    points = sweep("strong_ba", NS, fs=lambda c: [0])
    fit = fit_slope_vs(points, lambda p: p.n, lambda p: p.words)
    publish(
        "table1_strong_ba_linear",
        render_points(points),
        f"log-log slope of words vs n (f=0): {fit.slope:.3f} "
        f"(paper: O(n) -> 1.0), R^2={fit.r_squared:.4f}",
    )
    assert 0.85 < fit.slope < 1.15, f"Alg 5 f=0 must be linear, got {fit.slope}"
    for p in points:
        assert not p.fallback_used
        assert p.decision == 1


def test_strong_ba_any_failure_goes_quadratic():
    """One failure is enough to leave the fast path: slope jumps to ~2
    and every run uses the fallback."""
    points = sweep("strong_ba", NS, fs=lambda c: [1])
    fit = fit_slope_vs(points, lambda p: p.n, lambda p: p.words)
    failure_free = sweep("strong_ba", NS, fs=lambda c: [0])
    publish(
        "table1_strong_ba_degraded",
        render_points(points),
        f"log-log slope of words vs n (f=1): {fit.slope:.3f} "
        "(paper: O(n^2) otherwise -> ~2.0)",
        "\n".join(
            f"n={a.n}: words f=0 {a.words:6d}  vs  f=1 {b.words:6d} "
            f"({b.words / a.words:.1f}x)"
            for a, b in zip(failure_free, points)
        ),
    )
    assert 1.6 < fit.slope < 2.4
    for quiet, noisy in zip(failure_free, points):
        assert noisy.fallback_used
        assert noisy.words > 3 * quiet.words
