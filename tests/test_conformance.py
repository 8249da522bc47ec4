"""Differential conformance suite: both backends, one contract.

The tentpole of the Protocol API refactor: every property here is
asserted for **every registered backend** through the shared ``backend``
fixture, with the backend's own published envelopes
(``strong_ba_word_budget`` / ``strong_ba_tick_bound``) supplying the
numbers where the papers legitimately differ.  Four layers:

* **Table-1 adaptivity grid** — the word-vs-f sweep re-run per backend:
  agreement, validity, termination, fallback regime, and the word bill
  against the backend's envelope at every ``f <= t``.
* **Role × phase fault battery** — crash every protocol role (cohen's
  fixed leader p0, civit's view-1 certifier p1, a pure follower) at
  early/middle/late phase boundaries with WAL rejoin, and require the
  full recovery contract including offline replay, mirroring
  ``tests/test_recovery_battery.py``.
* **Mutant kill-list parity** — the civit mutants must die of exactly
  the violation kinds their cohen twins die of (the kills themselves
  run in ``tests/test_mc_mutants.py``, which parametrizes over the full
  ``MUTANTS`` registry).
* **Cross-backend seeded sweep** — identical seeded ``FaultPlan``s and
  identical exhaustive ``ChoiceSource`` schedule spaces, both backends:
  agreement/validity/termination everywhere, words inside each
  backend's envelope.
"""

from __future__ import annotations

import pytest

from repro.adversary.behaviors import SilentBehavior
from repro.config import RunParameters, SystemConfig
from repro.faults import FaultPlan, ProcessCrash
from repro.mc.explore import explore_exhaustive
from repro.mc.mutants import MUTANTS
from repro.mc.scenario import make_scenario
from repro.recovery import RecoveryManager, replay_wal
from repro.verify.checker import verify_under_plan

CONFIG3 = SystemConfig(n=3, t=1)
DOWN_TICKS = 3


class TestAdaptivityGrid:
    """Table 1 re-run per backend: the word-vs-f curve stays inside the
    backend's published envelope, and the fallback fires exactly in the
    regime the backend declares for it."""

    @pytest.mark.parametrize("f", [0, 1, 2, 3])
    def test_strong_ba_envelope(self, backend, config7, f):
        byzantine = {
            config7.n - 1 - i: SilentBehavior() for i in range(f)
        }
        inputs = {p: 1 for p in config7.processes if p not in byzantine}
        result = backend.run_strong_ba(config7, inputs, byzantine=byzantine)
        assert result.unanimous_decision() == 1  # agreement + validity
        assert not result.truncated  # termination
        assert result.correct_words <= backend.strong_ba_word_budget(
            config7, f
        )
        if backend.strong_ba_degrades_quadratically:
            expect_fallback = f > 0
        else:
            expect_fallback = f >= config7.fallback_failure_threshold
        assert result.fallback_was_used() == expect_fallback
        if f == 0:
            assert result.ticks <= backend.strong_ba_tick_bound(config7)

    @pytest.mark.parametrize("f", [0, 1, 2])
    def test_adaptive_strong_ba_grid(self, backend, config7, f):
        byzantine = {
            config7.n - 1 - i: SilentBehavior() for i in range(f)
        }
        inputs = {p: "V" for p in config7.processes if p not in byzantine}
        result = backend.run_adaptive_strong_ba(
            config7, inputs, byzantine=byzantine
        )
        assert result.unanimous_decision() == "V"
        assert not result.truncated

    def test_linear_at_one_failure_iff_declared(self, backend):
        """The headline differential, stated as a conformance fact: at
        f=1 a quadratically-degrading backend's words-per-process must
        grow with n, while an adaptive backend's must stay flat."""
        per_process = {}
        for n in (7, 11):
            config = SystemConfig.with_optimal_resilience(n)
            byzantine = {n - 1: SilentBehavior()}
            inputs = {p: 1 for p in config.processes if p not in byzantine}
            result = backend.run_strong_ba(
                config, inputs, byzantine=byzantine
            )
            per_process[n] = result.correct_words / n
        ratio = per_process[11] / per_process[7]
        if backend.strong_ba_degrades_quadratically:
            assert ratio > 1.5
        else:
            assert ratio < 1.3


class TestRoleFaultBattery:
    """Crash each role at early/middle/late boundaries; WAL rejoin must
    restore the full contract.  Roles at n=3: p0 is cohen's fixed
    leader, p1 is civit's view-1 certifier *and* the shared core's
    phase-1 leader, p2 never coordinates anything."""

    ROLES = (0, 1, 2)

    def _boundaries(self, backend):
        bound = backend.strong_ba_tick_bound(CONFIG3)
        return (1, max(2, bound // 3), max(3, 2 * bound // 3))

    @pytest.mark.parametrize("pid", ROLES)
    def test_role_crash_with_rejoin(self, backend, pid, tmp_path, test_seed):
        for at_tick in self._boundaries(backend):
            wal_dir = tmp_path / f"wal-{pid}-{at_tick}"
            plan = FaultPlan(
                crashes=(
                    ProcessCrash(
                        pid=pid,
                        at_tick=at_tick,
                        restart_tick=at_tick + DOWN_TICKS,
                    ),
                ),
                seed=test_seed,
            )
            recovery = RecoveryManager(wal_dir)
            result = backend.run_strong_ba(
                CONFIG3,
                {p: 1 for p in CONFIG3.processes},
                seed=test_seed,
                params=RunParameters(
                    seed=test_seed, fault_plan=plan, recovery=recovery
                ),
            )
            decisions = set(map(repr, result.decisions.values()))
            assert decisions == {"1"}, (backend.name, pid, at_tick)
            assert result.recovered == frozenset({pid})
            report = verify_under_plan(result, plan)
            assert report.ok, report.summary()
            # The WAL alone reproduces the crashed process's decision —
            # through the registry-dispatched replay builder.
            offline = replay_wal(wal_dir / f"p{pid}")
            assert offline.decided and repr(offline.decision) == "1"


class TestMutantKillParity:
    """The civit mutants mirror the cohen kill list: same lemma
    ablation, same expected violation kind.  (The kills themselves run
    in test_mc_mutants.py over the whole registry.)"""

    PAIRS = (
        ("quorum-off-by-one", "civit-quorum-off-by-one"),
        ("fallback-echo-skipped", "civit-fallback-echo-skipped"),
        ("non-silent-leaders", "civit-non-silent-leaders"),
    )

    @pytest.mark.parametrize("cohen_name,civit_name", PAIRS)
    def test_expected_kinds_match(self, cohen_name, civit_name):
        assert MUTANTS[cohen_name].expected_kinds == MUTANTS[
            civit_name
        ].expected_kinds

    def test_civit_mutants_run_in_the_civit_scenario(self):
        import repro.protocols as protocols
        from repro.protocols.table import get_protocol

        civit = protocols.get_backend("civit")
        for _, civit_name in self.PAIRS:
            spec = MUTANTS[civit_name]
            assert get_protocol(spec.scenario).name == civit.strong_ba_row

    def test_cohen_mutants_scenario_unchanged(self):
        for cohen_name, _ in self.PAIRS:
            assert MUTANTS[cohen_name].scenario == "weak-ba"


class TestCrossBackendSweep:
    """Identical adversity, every backend: the differential heart of
    the suite."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_identical_fault_plans(self, backend, seed, tmp_path):
        """One seeded FaultPlan (message chaos + one crash), run under
        each backend: same plan object semantics, backend-specific
        envelope."""
        config = SystemConfig.with_optimal_resilience(5)
        plan = FaultPlan(
            seed=seed,
            duplicate_rate=0.2,
            delay_rate=0.2,
            reorder_rate=0.3,
            crashes=(ProcessCrash(pid=4, at_tick=2, restart_tick=5),),
        )
        recovery = RecoveryManager(tmp_path / f"wal-{seed}")
        result = backend.run_strong_ba(
            config,
            {p: 1 for p in config.processes},
            seed=seed,
            params=RunParameters(
                seed=seed, fault_plan=plan, recovery=recovery
            ),
        )
        assert result.unanimous_decision() == 1
        assert not result.truncated
        report = verify_under_plan(result, plan)
        assert report.ok, (backend.name, seed, report.summary())
        effective_f = len(frozenset(result.corrupted) | plan.faulty)
        assert result.correct_words <= backend.strong_ba_word_budget(
            config, effective_f
        )

    def test_identical_choice_schedules(self, backend):
        """Exhaustively explore the backend's strong-BA row over the
        same ChoiceSource space (silenced-identity × corruption tick,
        deterministic delivery): every schedule must verify for every
        backend."""
        scenario = make_scenario(
            backend.strong_ba_row,
            n=4,
            num_phases=1,
            adversary="choose-silent",
            corrupt_ticks=[0, 2],
            reorder=False,
        )
        outcome = explore_exhaustive(scenario, max_runs=64)
        assert outcome.complete
        assert outcome.ok, outcome.counterexamples[0].summary
