"""Lemma 6: if f < (n-t-1)/2, correct processes never run the fallback.

Sweeps f across the threshold for several n and records fallback
activation — the measured activation boundary must sit exactly at the
lemma's threshold for silent (crash-style) adversaries.
"""

from repro.adversary.behaviors import SilentBehavior
from repro.analysis.tables import format_table
from repro.config import SystemConfig
from repro.core.validity import ExternalValidity
from repro.core.weak_ba import run_weak_ba

from benchmarks._harness import publish

VALIDITY = lambda suite, cfg: ExternalValidity(lambda v: isinstance(v, str))


def fallback_used(n: int, f: int, seed: int = 0) -> bool:
    config = SystemConfig.with_optimal_resilience(n)
    byzantine = {p: SilentBehavior() for p in range(1, f + 1)}
    inputs = {p: "v" for p in config.processes if p not in byzantine}
    result = run_weak_ba(
        config, inputs, VALIDITY, byzantine=byzantine, seed=seed
    )
    assert result.unanimous_decision() == "v"
    return result.fallback_was_used()


def test_lemma6_activation_boundary():
    rows = []
    mismatches = []
    for n in (7, 13, 21):
        config = SystemConfig.with_optimal_resilience(n)
        threshold = config.fallback_failure_threshold
        for f in range(0, config.t + 1):
            used = fallback_used(n, f)
            below = f < threshold
            rows.append(
                [n, config.t, f, f"{threshold:.1f}",
                 "yes" if used else "no",
                 "adaptive" if below else "fallback-allowed"]
            )
            if below and used:
                mismatches.append((n, f))
    publish(
        "fallback_threshold",
        format_table(
            ["n", "t", "f", "(n-t-1)/2", "fallback used", "Lemma 6 regime"],
            rows,
        ),
        f"Lemma 6 violations (fallback below threshold): {len(mismatches)} "
        "(expected 0).  Above the threshold activation is permitted and — "
        "for silent adversaries that block the commit quorum — observed.",
    )
    assert not mismatches


def test_silent_adversary_activates_above_threshold():
    """Complement: with silent failures the commit quorum becomes
    unreachable exactly when n - f < ceil((n+t+1)/2), so activation is
    not just allowed but forced."""
    rows = []
    for n in (7, 13, 21):
        config = SystemConfig.with_optimal_resilience(n)
        for f in range(0, config.t + 1):
            used = fallback_used(n, f)
            forced = not config.commit_quorum_reachable(f)
            rows.append([n, f, "yes" if used else "no",
                         "yes" if forced else "no"])
            if forced:
                assert used, (n, f)
            if not forced:
                assert not used, (n, f)
    publish(
        "fallback_threshold_forced",
        format_table(["n", "f", "fallback used", "quorum unreachable"], rows),
        "Activation coincides exactly with commit-quorum unreachability "
        "under silent adversaries.",
    )
