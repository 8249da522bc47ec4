"""Table 1, row "Strong BA, O(n^2) multi-valued (Momose–Ren)".

The paper's fallback black box: our Momose–Ren-style recursive BA.
This bench certifies the substitute meets the interface contract the
paper relies on — strong BA at n = 2t+1 with quadratic words for any
f, including f = t.
"""

from repro.analysis.fitting import fit_slope_vs
from repro.analysis.sweeps import sweep
from repro.analysis.tables import render_points

from benchmarks._harness import publish

NS = (5, 9, 17, 33)


def test_fallback_words_quadratic_in_n():
    points = sweep("recursive_ba", NS, fs=lambda c: [0])
    fit = fit_slope_vs(points, lambda p: p.n, lambda p: p.words)
    publish(
        "table1_fallback_quadratic",
        render_points(points),
        f"log-log slope of words vs n (f=0): {fit.slope:.3f} "
        f"(Momose-Ren bound: O(n^2) -> ~2.0), R^2={fit.r_squared:.4f}",
    )
    assert 1.6 < fit.slope < 2.4
    for p in points:
        assert p.decision == "v"


def test_fallback_cost_insensitive_to_f():
    """Unlike the adaptive protocols, the fallback costs Θ(n^2) no
    matter how many processes actually fail — that is exactly why the
    paper only invokes it once f = Θ(t) is certified."""
    n = 17
    points = sweep("recursive_ba", [n], fs=lambda c: [0, c.t // 2, c.t])
    words = [p.words for p in points]
    publish(
        "table1_fallback_f_insensitive",
        render_points(points),
        f"words at f=0 / f=t/2 / f=t: {words} — every point stays "
        "Theta(n^2) (>= n^2/4), never collapsing toward O(nf)",
    )
    assert max(words) < 3 * min(words)
    assert all(w >= n * n / 4 for w in words)
    for p in points:
        assert p.decision == "v"
