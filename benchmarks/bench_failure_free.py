"""Section 7.1 / Lemma 8: the failure-free fast path of Algorithm 5.

"If all processes are correct ... there are 4 all-to-leader and
leader-to-all rounds, with a total of O(n) words."  This bench verifies
the exact round structure and per-round word budget of the fast path,
and that the *other* protocols' failure-free runs are also their
cheapest (the "practically common runs" motivation).
"""

from repro.analysis.tables import format_table
from repro.config import SystemConfig
from repro.core.byzantine_broadcast import run_byzantine_broadcast
from repro.core.strong_ba import run_strong_ba
from repro.core.weak_ba import run_weak_ba
from repro.core.validity import ExternalValidity

from benchmarks._harness import publish, word_bill


def test_algorithm5_fast_path_structure():
    rows = []
    bills = []
    for n in (5, 9, 17, 33):
        config = SystemConfig.with_optimal_resilience(n)
        result = run_strong_ba(config, {p: p % 2 for p in config.processes})
        bills.append(word_bill(f"strong_ba n={n} f=0", result))
        by_type = result.ledger.words_by_payload_type()
        rows.append(
            [
                n,
                by_type.get("SbaInput", 0),
                by_type.get("SbaPropose", 0),
                by_type.get("SbaDecideShare", 0),
                by_type.get("SbaDecideCert", 0),
                result.correct_words,
                result.ticks,
            ]
        )
        # Exactly the 4 leader rounds, each <= n words, nothing else.
        assert set(by_type) == {
            "SbaInput", "SbaPropose", "SbaDecideShare", "SbaDecideCert"
        }
        assert all(words <= n for words in by_type.values())
        assert not result.fallback_was_used()
    publish(
        "failure_free_alg5",
        format_table(
            ["n", "inputs", "propose", "decide-shares", "decide-cert",
             "total words", "ticks"],
            rows,
        ),
        "Lemma 8 reproduced: 4 rounds, <= 4(n-1) words, no fallback.",
        scenario={"protocol": "strong-ba", "ns": [5, 9, 17, 33], "f": 0,
                  "inputs": "alternating bits"},
        word_bills=bills,
    )


def test_failure_free_is_cheapest_run_for_every_protocol():
    """The 'common case' claim: for each protocol, f=0 is the cheapest
    configuration measured anywhere in this suite."""
    from repro.adversary.behaviors import SilentBehavior

    config = SystemConfig.with_optimal_resilience(9)
    validity = lambda suite, cfg: ExternalValidity(lambda v: isinstance(v, str))
    rows = []
    bills = []
    for name, quiet, degraded in (
        (
            "bb",
            lambda: run_byzantine_broadcast(config, sender=0, value="v"),
            lambda: run_byzantine_broadcast(
                config, sender=0, value="v",
                byzantine={p: SilentBehavior() for p in (1, 3, 5, 7)},
            ),
        ),
        (
            "weak_ba",
            lambda: run_weak_ba(
                config, {p: "v" for p in config.processes}, validity
            ),
            lambda: run_weak_ba(
                config,
                {p: "v" for p in config.processes if p not in (1, 3, 5, 7)},
                validity,
                byzantine={p: SilentBehavior() for p in (1, 3, 5, 7)},
            ),
        ),
        (
            "strong_ba",
            lambda: run_strong_ba(config, {p: 1 for p in config.processes}),
            lambda: run_strong_ba(
                config,
                {p: 1 for p in config.processes if p != 0},
                byzantine={0: SilentBehavior()},
            ),
        ),
    ):
        quiet_result = quiet()
        degraded_result = degraded()
        quiet_words = quiet_result.correct_words
        degraded_words = degraded_result.correct_words
        bills.append(word_bill(f"{name} f=0", quiet_result))
        bills.append(word_bill(f"{name} f=t", degraded_result))
        rows.append([name, quiet_words, degraded_words,
                     f"{degraded_words / quiet_words:.1f}x"])
        assert quiet_words < degraded_words
    publish(
        "failure_free_cheapest",
        format_table(["protocol", "words f=0", "words f=t", "ratio"], rows),
        scenario={"n": 9, "protocols": ["bb", "weak_ba", "strong_ba"],
                  "comparison": "f=0 vs f=t silent adversary"},
        word_bills=bills,
    )
