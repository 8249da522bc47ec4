"""Section 5.1 / 6.1 claim: the number of non-silent phases is O(f+1).

"After the first non-silent phase by a correct leader, all following
phases with correct leaders are silent.  Thus, the number of non-silent
phases is linear in f."  This bench counts non-silent phases directly
from the trace across failure counts and adversary styles.
"""

from repro.adversary.behaviors import SilentBehavior
from repro.adversary.protocol_attacks import WeakBaTeasingLeader
from repro.analysis.tables import format_table
from repro.config import SystemConfig
from repro.core.validity import ExternalValidity
from repro.core.weak_ba import run_weak_ba

from benchmarks._harness import publish, word_bill

VALIDITY = lambda suite, cfg: ExternalValidity(lambda v: isinstance(v, str))


def count_non_silent(n, f, behavior_factory, seed=0):
    config = SystemConfig.with_optimal_resilience(n)
    byzantine = {p: behavior_factory(p) for p in range(1, f + 1)}
    inputs = {p: "v" for p in config.processes if p not in byzantine}
    result = run_weak_ba(
        config, inputs, VALIDITY, byzantine=byzantine, seed=seed
    )
    return result, result.trace.count("phase_non_silent")


def test_non_silent_phases_bounded_by_f_plus_one():
    n = 17
    config = SystemConfig.with_optimal_resilience(n)
    rows = []
    bills = []
    violations = []
    for f in range(0, config.t + 1):
        for label, factory in (
            ("silent", lambda pid: SilentBehavior()),
            ("teasing", lambda pid: WeakBaTeasingLeader(value="t")),
        ):
            result, non_silent = count_non_silent(n, f, factory)
            bills.append(word_bill(f"weak_ba n={n} f={f} {label}", result))
            rows.append(
                [f, label, non_silent, f + 1,
                 "yes" if result.fallback_was_used() else "no"]
            )
            if not result.fallback_was_used() and non_silent > f + 1:
                violations.append((f, label, non_silent))
    publish(
        "silent_phases",
        format_table(
            ["f", "adversary", "non-silent phases", "bound f+1", "fallback"],
            rows,
        ),
        f"violations of the f+1 bound in adaptive runs: {len(violations)} "
        "(paper Section 6.1: expected 0)",
        scenario={"protocol": "weak-ba", "n": n,
                  "fs": list(range(0, config.t + 1)),
                  "adversaries": ["silent", "teasing"]},
        word_bills=bills,
    )
    assert not violations


def test_silent_phases_cost_nothing():
    """A fully silent phase sends zero words: total phase-part words
    scale with non-silent phases only."""
    n = 17
    result, non_silent = count_non_silent(n, 0, lambda pid: SilentBehavior())
    phase_payloads = {
        "WbaPropose", "WbaVote", "WbaCommitInfo", "WbaCommitCert",
        "WbaDecideShare", "WbaFinalize",
    }
    phase_words = sum(
        w
        for ptype, w in result.ledger.words_by_payload_type().items()
        if ptype in phase_payloads
    )
    publish(
        "silent_phases_cost",
        f"n={n}, f=0: {non_silent} non-silent phase(s), "
        f"{phase_words} phase words over {result.config.n} phases "
        f"(~{phase_words / max(non_silent, 1):.0f} words per non-silent "
        "phase; silent phases are free)",
        scenario={"protocol": "weak-ba", "n": n, "f": 0,
                  "phase_words": phase_words, "non_silent": non_silent},
        word_bills=[word_bill(f"weak_ba n={n} f=0", result)],
    )
    # All phase words are attributable to the single non-silent phase,
    # and that phase is O(n): 5 leader/all exchanges.
    assert non_silent == 1
    assert phase_words <= 6 * n
