"""Table 1, lower-bound columns: Ω(nf) words and Ω(n^2) signatures.

Dolev–Reischuk [9]: any BB needs Ω(nt) *signatures* even in failure-
free runs, and Ω(nf) words.  The paper's protocols meet the word bound
adaptively while packing the mandatory signatures into threshold
certificates.  This bench verifies our measurements respect both sides:

* transmitted *signatures* (counting each certificate as its quorum's
  worth) grow ~quadratically in n even at f = 0 — the Ω(nt) cost is
  paid, it is just compressed;
* transmitted *words* stay ~linear at f = 0 — the compression is real;
* words never drop below n - 1 ≈ Ω(n(f+1)) at f = 0 (every correct
  process must learn the value).
"""

from repro.analysis.fitting import fit_slope_vs
from repro.analysis.sweeps import sweep
from repro.analysis.tables import render_points

from benchmarks._harness import publish

NS = (5, 9, 17, 33)


def test_signatures_quadratic_but_words_linear():
    points = sweep("bb", NS, fs=lambda c: [0])
    sig_fit = fit_slope_vs(points, lambda p: p.n, lambda p: p.signatures)
    word_fit = fit_slope_vs(points, lambda p: p.n, lambda p: p.words)
    publish(
        "lower_bounds",
        render_points(
            points, extra={"sigs/nt": lambda p: p.signatures / (p.n * p.t)}
        ),
        f"signature slope vs n (f=0): {sig_fit.slope:.3f}  "
        "(Dolev-Reischuk: Omega(nt) signatures -> ~2.0)\n"
        f"word slope vs n (f=0):      {word_fit.slope:.3f}  "
        "(threshold compression -> ~1.0)",
    )
    assert sig_fit.slope > 1.5, "the Omega(nt) signature cost must be paid"
    assert word_fit.slope < 1.3, "yet words must stay linear"
    for p in points:
        assert p.signatures >= p.n * p.t / 4, "Omega(nt) signatures"
        assert p.words >= p.n - 1, "Omega(n(f+1)) words at f=0"


def test_words_respect_omega_nf():
    """At every measured (n, f), the adaptive upper bound sits above
    the Ω(nf) lower bound — the gap is the constant the paper buys."""
    points = sweep("bb", (5, 9, 13), fs=lambda c: range(c.t + 1))
    violations = [p for p in points if p.f > 0 and p.words < p.n * p.f / 4]
    publish(
        "lower_bounds_nf",
        render_points(points, extra={"w/(nf)": lambda p: (
            p.words / (p.n * p.f) if p.f else float("nan")
        )}),
        f"points below Omega(nf)/4: {len(violations)} (expected 0)",
    )
    assert not violations
