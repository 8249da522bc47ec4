"""Ancillary measurement: the rounds-for-words trade.

The paper optimizes *words*; its rotating-phase structure pays with
*rounds* (time).  This bench makes the trade explicit — useful context
the brief announcement leaves implicit:

* Algorithm 5's fast path: **O(1)** rounds (and O(n) words);
* Dolev–Strong: **t + 2** rounds (and cubic worst-case words);
* adaptive BB: **O(n)** rounds (phases run even when silent) — the
  price of O(n(f+1)) words;
* the fallback adds **O(n)** more rounds when it engages.
"""

from repro.analysis.fitting import fit_slope_vs
from repro.analysis.tables import format_table
from repro.config import SystemConfig
from repro.core.byzantine_broadcast import run_byzantine_broadcast
from repro.core.strong_ba import run_strong_ba
from repro.fallback.dolev_strong import run_dolev_strong

from benchmarks._harness import publish

NS = (5, 9, 17, 33)


def test_round_complexity_trade():
    rows = []
    bb_rounds, ds_rounds, sba_rounds = [], [], []
    for n in NS:
        config = SystemConfig.with_optimal_resilience(n)
        bb = run_byzantine_broadcast(config, sender=0, value="v")
        ds = run_dolev_strong(config, sender=0, value="v")
        sba = run_strong_ba(config, {p: 1 for p in config.processes})
        rows.append(
            [n, bb.ticks, bb.correct_words, ds.ticks, ds.correct_words,
             sba.ticks, sba.correct_words]
        )
        bb_rounds.append((n, bb.ticks))
        ds_rounds.append((n, ds.ticks))
        sba_rounds.append((n, sba.ticks))
        assert ds.ticks == config.t + 2  # Dolev-Strong's exact schedule
    bb_fit = fit_slope_vs(bb_rounds, lambda p: p[0], lambda p: p[1])
    publish(
        "round_complexity",
        format_table(
            ["n", "BB rounds", "BB words", "DS rounds", "DS words",
             "Alg5 rounds", "Alg5 words"],
            rows,
        ),
        f"adaptive BB rounds grow ~n^{bb_fit.slope:.2f} (the price of "
        "word adaptivity); Dolev-Strong stays at t+2 rounds but pays in "
        "words; Algorithm 5's fast path is constant-round AND linear-"
        "word — in its binary failure-free niche.",
    )
    # Alg 5 fast path: constant rounds independent of n.
    assert len({ticks for _, ticks in sba_rounds}) == 1
    # BB rounds ~linear in n.
    assert 0.8 < bb_fit.slope < 1.2
