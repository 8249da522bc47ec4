"""The three corners of the paper's landscape, measured side by side.

* **Phase King** — unauthenticated, ``n >= 4t+1``, ``O(n^3)`` words;
* **Dolev–Strong** — authenticated, any ``t < n``, ``O(n^2)`` messages
  but cubic words in the worst case;
* **this paper** — PKI + threshold signatures, ``n = 2t+1``,
  ``O(n(f+1))`` words.

For an apples-to-apples run we compare *failure-free binary agreement*
at matched process counts (Phase King gets its required extra
resilience margin within the same n by using a smaller t).
"""

from repro.analysis.fitting import fit_slope_vs
from repro.analysis.tables import format_table
from repro.config import SystemConfig
from repro.core.strong_ba import run_strong_ba
from repro.fallback.dolev_strong import run_dolev_strong
from repro.fallback.phase_king import run_phase_king

from benchmarks._harness import publish

NS = (5, 9, 17, 33)


def test_three_way_baseline_comparison():
    rows = []
    series = {"paper": [], "dolev_strong": [], "phase_king": []}
    for n in NS:
        paper_config = SystemConfig.with_optimal_resilience(n)
        paper = run_strong_ba(
            paper_config, {p: 1 for p in paper_config.processes}
        )
        assert paper.unanimous_decision() == 1

        ds = run_dolev_strong(paper_config, sender=0, value=1)
        assert ds.unanimous_decision() == 1

        pk_config = SystemConfig(n=n, t=(n - 1) // 4)
        pk = run_phase_king(pk_config, {p: 1 for p in pk_config.processes})
        assert pk.unanimous_decision() == 1

        rows.append(
            [
                n,
                f"{paper.correct_words} (t={paper_config.t})",
                f"{ds.correct_words} (t={paper_config.t})",
                f"{pk.correct_words} (t={pk_config.t})",
            ]
        )
        series["paper"].append((n, paper.correct_words))
        series["dolev_strong"].append((n, ds.correct_words))
        series["phase_king"].append((n, pk.correct_words))

    slopes = {
        name: fit_slope_vs(points, lambda p: p[0], lambda p: p[1]).slope
        for name, points in series.items()
    }
    publish(
        "baseline_phase_king",
        format_table(
            ["n", "paper Alg.5 words", "Dolev-Strong words",
             "Phase King words"],
            rows,
        ),
        "failure-free word-growth slopes vs n: "
        + ", ".join(f"{k}: n^{v:.2f}" for k, v in sorted(slopes.items()))
        + "\n(paper ~linear; both classical baselines super-linear — and "
        "Phase King also needs double the replication for the same t)",
    )
    assert slopes["paper"] < 1.3
    assert slopes["dolev_strong"] > slopes["paper"] + 0.5
    assert slopes["phase_king"] > slopes["paper"] + 0.5
    for _, paper_w, ds_w, pk_w in rows[2:]:
        paper_words = int(paper_w.split()[0])
        assert paper_words < int(ds_w.split()[0])
        assert paper_words < int(pk_w.split()[0])
