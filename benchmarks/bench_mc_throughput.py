"""Model-checker throughput: schedules/second and pruning leverage.

Not a paper claim — infrastructure health for the ``repro.mc``
subsystem: how fast the explorer executes schedules and how much of the
bounded space fingerprint pruning removes.  If pruning leverage
regresses, exhaustive proofs that take seconds today quietly become
minutes (the full n=4 perm_cap=6 space is ~154k runs; perm_cap=2/3
keep CI-sized spaces at CI size).

Explorer *speed* across commits is the perf ledger's job (the
``mc_explore`` workload of ``perfledger/``, guarded per metric by
``BENCHMARK.json``); this bench publishes the pruning table.
"""

import time

from benchmarks._harness import publish, time_percentiles
from repro.mc.explore import explore_exhaustive, explore_random
from repro.mc.scenario import make_scenario


def _scenario(perm_cap=2):
    return make_scenario("weak-ba", n=4, t=1, max_ticks=12, perm_cap=perm_cap)


def test_exhaustive_schedule_rate(benchmark):
    """Schedules/sec of the DFS over the perm_cap=2 proof space."""
    result = benchmark(lambda: explore_exhaustive(_scenario(), max_runs=10_000))
    assert result.complete and result.ok


def test_random_walk_rate(benchmark):
    """Schedules/sec of seeded random walks (no pruning, every run
    terminal) — the mode for spaces too large to exhaust."""
    result = benchmark(
        lambda: explore_random(_scenario(perm_cap=6), runs=50, seed=0)
    )
    assert result.ok
    assert result.stats.terminal == 50


def test_pruning_leverage_report(benchmark):
    """Publish the explored/pruned table: pruning must remove most of
    the space, and disabling it must not change the verdict."""

    def measure(perm_cap, prune):
        start = time.perf_counter()
        result = explore_exhaustive(
            _scenario(perm_cap), max_runs=50_000, prune=prune
        )
        elapsed = time.perf_counter() - start
        return result, elapsed

    rows = ["perm_cap  prune     runs  terminal   pruned   states  sched/s"]
    verdicts = set()
    for perm_cap in (2, 3):
        for prune in ("behavior", "history", None):
            result, elapsed = measure(perm_cap, prune)
            stats = result.stats
            rate = stats.runs / elapsed if elapsed else float("inf")
            rows.append(
                f"{perm_cap:>8}  {str(prune):<8} {stats.runs:>5}"
                f"  {stats.terminal:>8}  {stats.pruned:>7}"
                f"  {stats.distinct_states:>7}  {rate:>7.0f}"
            )
            verdicts.add((result.complete, result.ok))

    # Same theorem whichever fingerprint mode (or none) we search with.
    assert verdicts == {(True, True)}

    # Pruning leverage: "behavior" mode removes most of the cap-3 space.
    pruned_result, _ = measure(3, "behavior")
    stats = pruned_result.stats
    assert stats.pruned > stats.terminal

    publish(
        "mc_throughput",
        "model-checker throughput (weak-ba, n=4, t=1, <=12 ticks)",
        "\n".join(rows),
        scenario={
            "scenario": "weak-ba n=4 t=1 max_ticks=12",
            "perm_caps": [2, 3],
            "prune_modes": ["behavior", "history", "none"],
        },
        wall_clock=time_percentiles(
            lambda: explore_exhaustive(_scenario(), max_runs=10_000),
            repeats=3,
        ),
    )
    benchmark(lambda: explore_exhaustive(_scenario(), max_runs=10_000))
