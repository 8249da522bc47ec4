"""Tests for the schedule-space explorer (``repro.mc.explore``).

The headline test is the bounded-space *proof*: exhaustive DFS over the
n=4, t=1, <=12-tick weak-BA space with an adaptively chosen silenced
process finds no violation of agreement, validity, adaptive silence, or
the word budget — and because the space is exhausted (``complete``),
that is a theorem about the bounded space, not a sample.  The fast
always-on variant caps inbox permutations at 2 per choice point; the
``mc_exhaustive``-marked variant widens to 3 and is part of tier-1 too
(the full cap-6 space is 154k schedules, ~5 minutes — run it via
``repro mc explore``).
"""

import pytest

from repro.mc.explore import explore_exhaustive, explore_random, run_schedule
from repro.mc.scenario import make_scenario


def _proof_scenario(perm_cap: int):
    return make_scenario("weak-ba", n=4, t=1, max_ticks=12, perm_cap=perm_cap)


class TestRunSchedule:
    def test_empty_script_runs_the_canonical_schedule(self):
        outcome = run_schedule(_proof_scenario(perm_cap=2))
        assert not outcome.pruned
        assert outcome.result is not None
        assert outcome.report is not None
        # The canonical schedule logs every open decision it met.
        assert outcome.decisions == [entry.chosen for entry in outcome.log]

    def test_scripted_run_is_deterministic(self):
        scenario = _proof_scenario(perm_cap=2)
        first = run_schedule(scenario, (1,))
        second = run_schedule(scenario, (1,))
        assert first.decisions == second.decisions
        assert first.result.trace.canonical() == second.result.trace.canonical()


class TestExhaustive:
    def test_bounded_space_proof_n4(self):
        """Agreement + validity + word budget over the full bounded
        space (n=4, t=1, <=12 ticks, perm_cap=2): no counterexample,
        space exhausted."""
        result = explore_exhaustive(_proof_scenario(perm_cap=2), max_runs=10_000)
        assert result.complete, "space not exhausted - not a proof"
        assert result.ok, result.counterexamples
        stats = result.stats
        assert stats.terminal > 0
        assert stats.pruned > 0
        assert stats.distinct_states > 0
        assert stats.runs == stats.terminal + stats.pruned

    @pytest.mark.mc_exhaustive
    def test_bounded_space_proof_n4_wide(self):
        """The same proof over the wider perm_cap=3 space (~1.1k
        schedules, ~0.5 s); ``-m mc_exhaustive`` selects it alone."""
        result = explore_exhaustive(_proof_scenario(perm_cap=3), max_runs=100_000)
        assert result.complete
        assert result.ok, result.counterexamples
        print(
            f"\nexplored {result.stats.runs} schedules "
            f"({result.stats.terminal} terminal, {result.stats.pruned} pruned, "
            f"{result.stats.distinct_states} distinct states)"
        )

    @pytest.mark.parametrize(
        "perm_cap, prune, table",
        [
            (2, "behavior", (84, 5, 79, 148)),
            (2, "history", (528, 528, 0, 1831)),
            (2, None, (528, 528, 0, 0)),
            (3, "behavior", (777, 5, 772, 346)),
        ],
    )
    def test_pruning_leverage_is_pinned(self, perm_cap, prune, table):
        """runs/terminal/pruned/distinct_states of the bounded proof per
        fingerprint mode: "behavior" pruning removes most of the space,
        and every mode proves the same theorem.  A regression in pruning
        leverage turns proofs of seconds into proofs of minutes."""
        result = explore_exhaustive(
            _proof_scenario(perm_cap), max_runs=50_000, prune=prune
        )
        assert result.complete and result.ok, result.counterexamples
        stats = result.stats
        assert (
            stats.runs, stats.terminal, stats.pruned, stats.distinct_states
        ) == table

    @pytest.mark.slow
    @pytest.mark.parametrize("prune", ["history", None])
    def test_unpruned_wide_space_agrees_on_verdict(self, prune):
        """The perm_cap=3 proof without behaviour pruning: 19 719
        schedules, every one of them terminal, and no counterexample."""
        result = explore_exhaustive(
            _proof_scenario(perm_cap=3), max_runs=50_000, prune=prune
        )
        assert result.complete and result.ok, result.counterexamples
        assert result.stats.runs == result.stats.terminal == 19_719

    @pytest.mark.parametrize(
        "name, params, max_runs, table",
        [
            ("psync-weak-ba", dict(gst=1), 2000, (8, 4, 4, 0, 107)),
            ("psync-weak-ba", dict(gst=3), 2000, (76, 12, 64, 0, 488)),
            (
                "psync-weak-ba", dict(gst=2, adversary="choose-silent"),
                2000, (82, 21, 61, 0, 739),
            ),
            (
                "weak-ba",
                dict(drop_budget=1, max_duplicates=1, delay_levels=2,
                     max_ticks=10),
                300, (300, 2, 298, 2, 104),
            ),
            ("civit-strong-ba", dict(perm_cap=2), 2000, (110, 5, 105, 1, 210)),
        ],
        ids=["psync-gst1", "psync-gst3", "psync-silent", "weak-ba-faults",
             "civit"],
    )
    def test_stats_pinned_where_the_wheel_is_digested(
        self, name, params, max_runs, table
    ):
        """runs/terminal/pruned/truncated/distinct_states on the spaces
        whose state digest walks a wheel of per-copy fates: paced GST
        runs, drop/duplicate/delay verdicts, and the second backend.
        Any change to how pending deliveries are fingerprinted that
        merges or splits states moves these counts."""
        result = explore_exhaustive(
            make_scenario(name, **params), max_runs=max_runs
        )
        stats = result.stats
        assert (
            stats.runs, stats.terminal, stats.pruned, stats.truncated,
            stats.distinct_states,
        ) == table

    def test_prune_modes_agree_on_verdict(self):
        # A tiny space (no reordering: the only open decisions are the
        # adversary's) where pruned and unpruned search must coincide.
        def scenario():
            return make_scenario(
                "weak-ba", n=4, t=1, max_ticks=12, reorder=False
            )

        unpruned = explore_exhaustive(scenario(), prune=None)
        behavior = explore_exhaustive(scenario(), prune="behavior")
        history = explore_exhaustive(scenario(), prune="history")
        assert unpruned.complete and behavior.complete and history.complete
        assert unpruned.ok == behavior.ok == history.ok
        # Pruning may drop runs but never terminal verdicts' union:
        # every adversary branch still reaches a terminal run somewhere.
        assert behavior.stats.terminal >= 1
        assert unpruned.stats.terminal >= behavior.stats.terminal

    def test_max_runs_marks_incomplete(self):
        result = explore_exhaustive(_proof_scenario(perm_cap=2), max_runs=3)
        assert result.stats.runs == 3
        assert not result.complete

    def test_mutated_scenario_yields_counterexample(self):
        scenario = make_scenario(
            "weak-ba",
            n=4,
            t=1,
            adversary="equivocating-leader",
            max_ticks=24,
            reorder=False,
            quorum_delta=-1,
        )
        result = explore_exhaustive(scenario, stop_at_first=True)
        assert not result.ok
        (ce,) = result.counterexamples
        assert "agreement" in ce.kinds
        assert ce.params["quorum_delta"] == -1

    def test_bad_prune_mode_rejected(self):
        from repro.errors import ModelCheckError

        with pytest.raises(ModelCheckError):
            explore_exhaustive(_proof_scenario(perm_cap=2), prune="turbo")


class TestRandomWalk:
    def test_sound_scenario_survives_random_walks(self):
        result = explore_random(_proof_scenario(perm_cap=2), runs=20, seed=5)
        assert result.ok
        assert result.stats.runs == 20
        assert not result.complete  # sampling is never a proof

    def test_walks_over_the_wide_space_are_never_pruned(self):
        """Random walks are for spaces too large to exhaust (perm_cap=6
        here): every walk runs to a terminal state and is checked."""
        result = explore_random(_proof_scenario(perm_cap=6), runs=50, seed=0)
        assert result.ok
        assert result.stats.runs == result.stats.terminal == 50

    def test_walk_counterexample_replays_as_script(self):
        scenario = make_scenario(
            "weak-ba",
            n=4,
            t=1,
            adversary="equivocating-leader",
            max_ticks=24,
            quorum_delta=-1,
        )
        result = explore_random(scenario, runs=10, seed=0)
        assert not result.ok
        ce = result.counterexamples[0]
        outcome = run_schedule(scenario, ce.decisions)
        assert {v.kind for v in outcome.report.violations} >= set(ce.kinds)
