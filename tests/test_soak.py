"""The chaos-soak fleet: derivation, worker, auditor, artifacts, fleet.

The auditor's job is to catch accounting and agreement bugs across
thousands of instances, so its own tests work both directions: honest
instances must audit clean, and instances sabotaged with a *known*
accounting bug (the worker's ``inject`` tags) must trip the *specific*
invariant that models the bug — caught within that one instance, and
reproducing from the written artifact.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.soak import (
    INJECT_DOUBLE_BILL,
    INJECT_SKIP_REJOIN_DEDUP,
    PROFILES,
    SoakAuditor,
    SoakSettings,
    derive_instance,
    render_outcome,
    replay_artifact,
    run_fleet,
    run_instance,
    soak_result_doc,
    spec_from_json,
    spec_to_json,
    with_inject,
    write_artifact,
)
from repro.soak.worker import InstanceFacts

pytestmark = pytest.mark.usefixtures("exact_landing_accounting")

MIXED = PROFILES["mixed"]
CALM = PROFILES["calm"]


def _first_crash_spec(master_seed: int = 11):
    """The first derived weak-BA instance whose plan crashes a process
    (scanned, not hard-coded, so derivation changes cannot silently
    turn this into a crash-free test)."""
    for index in range(500):
        spec = derive_instance(master_seed, index, MIXED)
        if (
            spec.plan is not None
            and spec.plan.crashes
            and spec.protocol == "weak_ba"
        ):
            return spec
    raise AssertionError("no crash-bearing weak_ba instance in 500 derivations")


class TestDerivation:
    def test_derivation_is_a_pure_function(self):
        a = derive_instance(7, 3, MIXED)
        b = derive_instance(7, 3, MIXED)
        assert a == b

    def test_consecutive_indices_decorrelate(self):
        seeds = {derive_instance(7, i, MIXED).seed for i in range(50)}
        assert len(seeds) == 50

    def test_fault_budget_never_exceeds_t(self):
        for index in range(200):
            spec = derive_instance(3, index, PROFILES["heavy"])
            if spec.plan is not None:
                assert len(spec.plan.faulty) <= spec.t

    def test_calm_profile_derives_no_fault_plan(self):
        assert all(
            derive_instance(7, i, CALM).plan is None for i in range(30)
        )

    def test_spec_json_round_trip(self):
        spec = _first_crash_spec()
        assert spec.plan is not None and spec.plan.crashes
        assert spec_from_json(spec_to_json(spec)) == spec

    def test_with_inject_only_toggles_sabotage(self):
        spec = derive_instance(7, 0, MIXED)
        injected = with_inject(spec, INJECT_DOUBLE_BILL)
        assert injected.inject == INJECT_DOUBLE_BILL
        assert dataclasses.replace(injected, inject=None) == spec


class TestAuditorUnit:
    """Pure auditor logic over fabricated facts (no clusters run)."""

    @staticmethod
    def _honest(index: int, billed: int = 10) -> InstanceFacts:
        return InstanceFacts(
            index=index,
            decision="d",
            predicted_decision="d",
            verify_ok=True,
            words_billed=billed,
            words_predicted=billed,
            ledger_recount=billed,
        )

    def test_honest_facts_audit_clean(self):
        auditor = SoakAuditor()
        assert auditor.submit(self._honest(0)) == []
        assert auditor.cumulative_billed == 10

    def test_out_of_order_facts_are_buffered_then_audited_in_order(self):
        auditor = SoakAuditor()
        assert auditor.submit(self._honest(1)) == []
        assert auditor.backlog == 1
        assert auditor.instances_audited == 0
        assert auditor.submit(self._honest(0)) == []
        assert auditor.backlog == 0
        assert auditor.instances_audited == 2

    def test_duplicate_instance_is_a_sequence_violation(self):
        auditor = SoakAuditor()
        auditor.submit(self._honest(0))
        found = auditor.submit(self._honest(0))
        assert [v.kind for v in found] == ["instance-sequence"]

    def test_billed_vs_predicted_mismatch_is_double_billing(self):
        facts = self._honest(0)
        facts.words_billed += 1
        facts.ledger_recount += 1
        found = SoakAuditor().submit(facts)
        assert [v.kind for v in found] == ["double-billing"]

    def test_recount_mismatch_is_ledger_drift(self):
        facts = self._honest(0)
        facts.ledger_recount -= 2
        found = SoakAuditor().submit(facts)
        assert [v.kind for v in found] == ["ledger-drift"]

    def test_negative_bill_breaks_ledger_monotonicity(self):
        facts = self._honest(0, billed=-1)
        kinds = {v.kind for v in SoakAuditor().submit(facts)}
        assert "ledger-monotonicity" in kinds

    def test_wal_ledger_disagreement_is_flagged_per_pid(self):
        facts = self._honest(0)
        facts.ledger_sends = {0: 4, 1: 5}
        facts.wal_sends = {0: 4, 1: 7}
        found = SoakAuditor().submit(facts)
        assert [v.kind for v in found] == ["wal-highwater"]
        assert "p1" in found[0].detail

    def test_decision_divergence_is_flagged(self):
        facts = self._honest(0)
        facts.decision = "other"
        found = SoakAuditor().submit(facts)
        assert [v.kind for v in found] == ["decision-divergence"]

    def test_worker_error_short_circuits_the_other_checks(self):
        facts = InstanceFacts(index=0, error="boom")
        found = SoakAuditor().submit(facts)
        assert [v.kind for v in found] == ["instance-error"]


class TestWorkerAndArtifacts:
    def test_honest_instance_audits_clean(self):
        facts = run_instance(derive_instance(7, 0, CALM))
        assert facts.error is None
        assert SoakAuditor().submit(facts) == []
        assert facts.words_billed == facts.words_predicted > 0

    def test_injected_double_bill_is_caught_within_the_instance(self):
        spec = with_inject(derive_instance(7, 0, CALM), INJECT_DOUBLE_BILL)
        found = SoakAuditor().submit(run_instance(spec))
        assert [v.kind for v in found] == ["double-billing"]

    def test_skipped_rejoin_dedup_trips_wal_highwater_and_replays(
        self, tmp_path
    ):
        """A crash-rejoin instance with the dedup window sabotaged must
        trip the WAL-highwater invariant, and the written artifact must
        replay to the same verdict."""
        spec = with_inject(_first_crash_spec(), INJECT_SKIP_REJOIN_DEDUP)
        facts = run_instance(spec)
        assert facts.error is None
        assert facts.crashes >= 1 and facts.rejoins >= 1
        found = SoakAuditor(start_index=spec.index).submit(facts)
        kinds = sorted(v.kind for v in found)
        assert "wal-highwater" in kinds and "double-billing" in kinds

        path = write_artifact(tmp_path, spec, facts, found)
        verdict = replay_artifact(path)
        assert verdict["reproduced"], verdict
        assert not verdict["derivation_drift"]
        assert sorted(verdict["fresh_kinds"]) == kinds

    def test_crash_rejoin_instance_closes_no_round_by_timeout(self, monkeypatch):
        """Crash, down window, WAL rejoin with re-dialled sessions: every
        round still ends on completion, so the instance never pays its
        round timeout δ — a generous δ that a host stall cannot reach
        keeps the check about accounting, not load."""
        import repro.asyncnet.tcp as tcp
        from repro.obs.observer import Observer

        observers = []
        run_over_tcp = tcp.run_over_tcp

        def observed(*args, **kwargs):
            observers.append(Observer())
            return run_over_tcp(*args, observer=observers[-1], **kwargs)

        monkeypatch.setattr(tcp, "run_over_tcp", observed)
        spec = dataclasses.replace(_first_crash_spec(), tick_duration=0.3)
        facts = run_instance(spec)
        assert facts.error is None
        assert facts.crashes >= 1 and facts.rejoins >= 1 and facts.retries == 0
        assert SoakAuditor(start_index=spec.index).submit(facts) == []
        assert [
            o.snapshot()["metrics"]["counters"].get("sync.timeout_fired", 0)
            for o in observers
        ] == [0]


class TestFleet:
    def test_settings_reject_unknown_profile_and_missing_targets(self):
        with pytest.raises(ValueError, match="unknown chaos profile"):
            SoakSettings(profile="nope").chaos_profile()
        with pytest.raises(ValueError, match="instances, duration"):
            run_fleet(SoakSettings(instances=None, duration=None))

    def test_small_fleet_catches_an_injected_violation(self, tmp_path):
        """A 3-instance fleet with one sabotaged instance: the auditor
        flags exactly that instance, writes its artifact immediately,
        and the trend document still validates against the schema."""
        settings = SoakSettings(
            master_seed=7,
            profile="calm",
            workers=2,
            instances=3,
            artifacts_dir=tmp_path,
            inject={1: INJECT_DOUBLE_BILL},
        )
        outcome = run_fleet(settings)
        assert outcome.instances == 3
        assert not outcome.ok
        assert {v.index for v in outcome.violations} == {1}
        assert {v.kind for v in outcome.violations} == {"double-billing"}
        assert [p.name for p in outcome.artifacts] == [
            "soak-violation-i1.json"
        ]
        document = soak_result_doc(outcome)
        assert document["scenario"]["violations"] == 1
        assert document["scenario"]["violation_kinds"] == ["double-billing"]
        assert "double-billing" in render_outcome(outcome)

    @pytest.mark.soak
    def test_sustained_mixed_chaos_soak_is_violation_free(self, tmp_path):
        """A multi-minute mixed-chaos campaign across 3 worker processes
        must commit every instance with zero invariant violations."""
        outcome = run_fleet(
            SoakSettings(
                master_seed=31,
                profile="mixed",
                workers=3,
                instances=120,
                artifacts_dir=tmp_path,
            )
        )
        assert outcome.instances >= 120
        assert outcome.ok, render_outcome(outcome)
        assert outcome.crashes > 0 and outcome.rejoins > 0
        assert outcome.words_billed == outcome.words_predicted


class TestCivitBackendDerivation:
    """The civit backend rides into the soak behind ``civit_weight``:
    the ``backends`` profile mixes it in, derivation stays a pure
    function of ``(master_seed, index, profile)``, and — the
    stream-compatibility pin — profiles with ``civit_weight == 0``
    derive exactly what they derived before the field existed."""

    BACKENDS = PROFILES["backends"]

    def _first_civit_spec(self, master_seed=11, need_crash=False):
        for index in range(500):
            spec = derive_instance(master_seed, index, self.BACKENDS)
            if spec.protocol != "civit_strong_ba":
                continue
            if need_crash and not (spec.plan and spec.plan.crashes):
                continue
            return spec
        raise AssertionError("no civit instance in 500 derivations")

    def test_backends_profile_mixes_in_civit(self):
        protocols = {
            derive_instance(7, i, self.BACKENDS).protocol for i in range(40)
        }
        assert "civit_strong_ba" in protocols
        assert "weak_ba" in protocols

    def test_civit_spec_rederives_identically(self):
        spec = self._first_civit_spec()
        assert (
            derive_instance(spec.master_seed, spec.index, self.BACKENDS)
            == spec
        )
        assert spec_from_json(spec_to_json(spec)) == spec

    def test_zero_weight_profiles_unperturbed(self):
        """The extra protocol draw happens only when civit_weight > 0,
        so the pre-existing profiles' derivation streams are untouched —
        their replay artifacts stay valid across this change."""
        for profile in (CALM, MIXED, PROFILES["heavy"]):
            assert profile.civit_weight == 0.0

    def test_extra_draw_gated_on_weak_ba_branch(self):
        """Zeroing civit_weight must leave every instance that did not
        draw weak BA (hence never consumed the extra random) identical
        — the gating that makes the field stream-compatible."""
        twin = dataclasses.replace(self.BACKENDS, civit_weight=0.0)
        smr_seen = 0
        for index in range(60):
            original = derive_instance(7, index, self.BACKENDS)
            zeroed = derive_instance(7, index, twin)
            if original.protocol == "smr":
                assert original == zeroed
                smr_seen += 1
        assert smr_seen > 0

    def test_civit_crash_instance_audits_clean(self):
        spec = self._first_civit_spec(need_crash=True)
        facts = run_instance(spec)
        assert facts.error is None
        assert facts.crashes >= 1
        assert SoakAuditor(start_index=spec.index).submit(facts) == []
        assert facts.words_billed == facts.words_predicted > 0
