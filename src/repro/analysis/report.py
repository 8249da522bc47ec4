"""One-shot reproduction report generator.

``python -m repro report`` runs a condensed version of every benchmark
sweep and writes a single self-contained markdown report: Table 1 rows
with measured exponents, the Lemma 6 / Lemma 8 boundaries, the baseline
comparison, and a verdict per claim.  Useful as a smoke-level artifact
when the full ``pytest benchmarks/`` run is too heavy (e.g. in CI).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.adversary.behaviors import SilentBehavior
from repro.analysis.fitting import fit_slope_vs
from repro.analysis.sweeps import sweep
from repro.config import SystemConfig
from repro.core.strong_ba import run_strong_ba
from repro.core.weak_ba import run_weak_ba
from repro.fallback.dolev_strong import run_dolev_strong
from repro.protocols.table import string_validity


@dataclass(frozen=True)
class ClaimResult:
    """One reproduced claim: where it came from, what was measured."""

    claim: str
    paper: str
    measured: str
    holds: bool


def _slope(points) -> float:
    return fit_slope_vs(points, lambda p: p.n, lambda p: p.words).slope


def collect_claims(ns=(5, 9, 13, 17)) -> list[ClaimResult]:
    """Run the condensed measurement battery."""
    claims: list[ClaimResult] = []

    bb0 = _slope(sweep("bb", ns, fs=lambda c: [0]))
    claims.append(
        ClaimResult(
            claim="BB words, failure-free (Table 1)",
            paper="O(n(f+1)) -> slope 1",
            measured=f"n^{bb0:.2f}",
            holds=0.8 < bb0 < 1.3,
        )
    )
    bbt = _slope(sweep("bb", ns, fs=lambda c: [c.t]))
    claims.append(
        ClaimResult(
            claim="BB words, f=t (Table 1)",
            paper="O(n^2) -> slope 2",
            measured=f"n^{bbt:.2f}",
            holds=1.6 < bbt < 2.5,
        )
    )
    wba0 = _slope(sweep("weak_ba", ns, fs=lambda c: [0]))
    claims.append(
        ClaimResult(
            claim="weak BA words, failure-free (Table 1)",
            paper="O(n(f+1)) -> slope 1",
            measured=f"n^{wba0:.2f}",
            holds=0.8 < wba0 < 1.3,
        )
    )
    sba0 = _slope(sweep("strong_ba", ns, fs=lambda c: [0]))
    claims.append(
        ClaimResult(
            claim="strong BA words, failure-free (Lemma 8)",
            paper="O(n) -> slope 1",
            measured=f"n^{sba0:.2f}",
            holds=0.8 < sba0 < 1.3,
        )
    )
    fb = _slope(sweep("recursive_ba", ns, fs=lambda c: [0]))
    claims.append(
        ClaimResult(
            claim="A_fallback words (Momose-Ren black box)",
            paper="O(n^2) -> slope 2",
            measured=f"n^{fb:.2f}",
            holds=1.6 < fb < 2.6,
        )
    )

    # Lemma 6 boundary at n=13.
    config = SystemConfig.with_optimal_resilience(13)
    boundary_ok = True
    activations = []
    for f in range(config.t + 1):
        byzantine = {p: SilentBehavior() for p in range(1, f + 1)}
        inputs = {p: "v" for p in config.processes if p not in byzantine}
        result = run_weak_ba(config, inputs, string_validity, byzantine=byzantine)
        used = result.fallback_was_used()
        activations.append((f, used))
        if f < config.fallback_failure_threshold and used:
            boundary_ok = False
    first_activation = next((f for f, used in activations if used), None)
    claims.append(
        ClaimResult(
            claim="Lemma 6 fallback threshold (n=13)",
            paper=f"no fallback below (n-t-1)/2 = "
            f"{config.fallback_failure_threshold}",
            measured=f"first activation at f={first_activation}",
            holds=boundary_ok,
        )
    )

    # Lemma 8: no fallback and 4 rounds at f=0 (n=9).
    config9 = SystemConfig.with_optimal_resilience(9)
    sba = run_strong_ba(config9, {p: 1 for p in config9.processes})
    claims.append(
        ClaimResult(
            claim="Lemma 8 fast path (n=9, f=0)",
            paper="4 leader rounds, no fallback",
            measured=f"{sba.correct_words} words, "
            f"fallback={'yes' if sba.fallback_was_used() else 'no'}",
            holds=not sba.fallback_was_used()
            and sba.correct_words <= 4 * (config9.n - 1),
        )
    )

    # Baseline comparison at n=13.
    config13 = SystemConfig.with_optimal_resilience(13)
    adaptive = sweep("bb", [13], fs=lambda c: [0])[0].words
    baseline = run_dolev_strong(config13, sender=0, value="v").correct_words
    claims.append(
        ClaimResult(
            claim="adaptive BB vs Dolev-Strong (n=13, f=0)",
            paper="adaptive wins (Section 4)",
            measured=f"{adaptive} vs {baseline} words "
            f"({baseline / adaptive:.1f}x)",
            holds=adaptive < baseline,
        )
    )
    return claims


def render_report(claims: list[ClaimResult]) -> str:
    """The markdown report body."""
    lines = [
        "# Reproduction report",
        "",
        "Condensed measurement battery over the deterministic simulator.",
        "",
        "| claim | paper | measured | verdict |",
        "|---|---|---|---|",
    ]
    for c in claims:
        verdict = "✓ reproduced" if c.holds else "✗ MISMATCH"
        lines.append(f"| {c.claim} | {c.paper} | {c.measured} | {verdict} |")
    reproduced = sum(1 for c in claims if c.holds)
    lines += [
        "",
        f"**{reproduced}/{len(claims)} claims reproduced.**",
        "",
        "Full tables: run `pytest benchmarks/` "
        "(writes `benchmarks/results/*.json`).",
    ]
    return "\n".join(lines)
