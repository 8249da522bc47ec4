"""Theorem 2 at three-digit scale: the weak BA word curve past n=100.

The Table 1 benches stop at n=33 to stay CI-sized.  With the cached
Lagrange/verification layer and the slotted scheduler the simulator
clears n=101 in well under a second per run, so this bench records the
first three-digit points of the paper's headline curve:

* failure-free runs stay **linear** (``O(n)`` words — Lemma 8's fast
  path, slope ~1 on the log-log fit);
* silent-faulty runs without fallback respect the **adaptive** bound
  ``O(n * (f + 1))``;
* a forced fallback at n=101 shows the quadratic worst case the
  adaptive bound is escaping.
"""

from repro.analysis.fitting import fit_slope_vs
from repro.analysis.sweeps import sweep
from repro.analysis.tables import format_table

from benchmarks._harness import publish

NS = (25, 51, 75, 101)
ADAPTIVE_FS = (0, 1, 12, 25)


def _bill(point):
    """A schema-shaped word bill straight from a SweepPoint."""
    return {
        "label": f"weak_ba n={point.n} f={point.f}",
        "n": point.n,
        "t": point.t,
        "f": point.f,
        "words": point.words,
        "messages": point.messages,
        "signatures": point.signatures,
        "fallback": point.fallback_used,
    }


def test_weak_ba_word_curve_past_n100():
    """Failure-free words grow ~linearly through n=101; the adaptive
    bound holds for every non-fallback faulty point at n=101."""
    curve = sweep("weak_ba", NS, fs=lambda config: [0])
    assert all(not point.fallback_used for point in curve)
    fit = fit_slope_vs(curve, lambda p: p.n, lambda p: p.words)
    # Linear fast path: far from quadratic even at three digits.
    assert fit.slope < 1.5, fit

    adaptive = sweep("weak_ba", [101], fs=lambda config: list(ADAPTIVE_FS))
    assert all(not point.fallback_used for point in adaptive)
    for point in adaptive:
        assert point.words <= 6 * point.n * (point.f + 1), point

    (worst,) = sweep("weak_ba", [101], fs=lambda config: [config.t])
    assert worst.fallback_used
    # The quadratic fallback dwarfs every adaptive point.
    assert worst.words > 10 * max(point.words for point in adaptive)

    rows = [
        [p.n, p.f, p.words, p.messages, p.signatures,
         "yes" if p.fallback_used else "no", f"{p.words_per_nf:.2f}"]
        for p in (*curve, *adaptive, worst)
    ]
    publish(
        "weak_ba_scale",
        format_table(
            ["n", "f", "words", "messages", "signatures", "fallback",
             "words/(n(f+1))"],
            rows,
        ),
        f"failure-free words ~ n^{fit.slope:.2f} (R^2={fit.r_squared:.3f})"
        f" across n in {list(NS)}",
        scenario={
            "protocol": "weak-ba",
            "ns": list(NS),
            "adaptive_fs_at_n101": list(ADAPTIVE_FS),
            "worst_case": "f=t=50 silent (forced fallback)",
        },
        word_bills=[_bill(p) for p in (*curve, *adaptive, worst)],
    )
