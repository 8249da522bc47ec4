"""The paper's lemmas as executable checks — one test per lemma.

Each test quotes the statement it reproduces (appendix numbering from
the arXiv v2 text) and exercises it on crafted scenarios.  These do not
*prove* the lemmas — they witness them under the adversaries this
repository implements, and several have adversarial *converse* checks
(the property fails when its precondition is ablated).
"""

from repro.adversary.behaviors import SilentBehavior
from repro.adversary.protocol_attacks import (
    BbVettingHelpSpammer,
    WeakBaCommitOnlyLeader,
    WeakBaSplitFinalizeLeader,
)
from repro.core.byzantine_broadcast import run_byzantine_broadcast
from repro.core.strong_ba import run_strong_ba
from repro.core.validity import ExternalValidity
from repro.core.values import BOTTOM
from repro.core.weak_ba import run_weak_ba
from repro.verify import verify_run

STR_VALIDITY = lambda suite, cfg: ExternalValidity(lambda v: isinstance(v, str))


class TestSection5Lemmas:
    def test_lemma_9_non_silent_phase_with_correct_leader_returns_valid(
        self, config7
    ):
        """Lemma 9: 'If a phase is non-silent and its leader is correct,
        then all correct processes return a valid value.'  With a silent
        sender, the first correct leader's phase must leave every correct
        process holding the idk certificate (a valid value)."""
        result = run_byzantine_broadcast(
            config7, sender=0, value=None, byzantine={0: SilentBehavior()}
        )
        # Exactly one non-silent vetting phase sufficed for everyone.
        assert result.trace.count("bb_phase_non_silent") == 1
        # All correct processes then agreed (on ⊥, the idk outcome).
        assert result.unanimous_decision() == BOTTOM

    def test_lemma_10_no_idk_certificate_when_sender_correct(self, config7):
        """Lemma 10: if all correct processes hold the sender's value,
        no value signed by t+1 processes can exist — witnessed by zero
        idk replies across any adversary that asks for help."""
        byzantine = {p: BbVettingHelpSpammer() for p in (1, 2, 3)}
        result = run_byzantine_broadcast(
            config7, sender=0, value="v", byzantine=byzantine
        )
        by_type = result.ledger.words_by_payload_type()
        assert by_type.get("BbIdkReply", 0) == 0  # nobody ever said idk
        assert result.unanimous_decision() == "v"

    def test_lemma_11_all_correct_enter_weak_ba_with_valid_input(
        self, config7
    ):
        """Lemma 11: every correct process executes the weak BA with a
        valid initial value — so the weak-BA proposals (votes) exist in
        phase 1 even when the sender was silent."""
        result = run_byzantine_broadcast(
            config7, sender=0, value=None, byzantine={0: SilentBehavior()}
        )
        # The weak BA reached a decision through its phases (not ⊥ by
        # absence of proposals): the first non-silent weak-BA phase
        # collected votes.
        votes = [
            r
            for r in result.ledger.records
            if r.payload_type == "WbaVote" and r.sender_correct
        ]
        assert votes, "valid inputs must exist for voting"

    def test_lemma_12_validity(self, config7):
        """Lemma 12 (BB validity): a correct sender's value is decided,
        across every failure pattern up to t."""
        for f in range(config7.t + 1):
            byzantine = {p: SilentBehavior() for p in range(1, f + 1)}
            result = run_byzantine_broadcast(
                config7, sender=0, value="payload", byzantine=byzantine
            )
            assert result.unanimous_decision() == "payload"


class TestSection6Lemmas:
    def test_lemma_14_decisions_are_valid(self, config7):
        """Lemma 14: any in-phase decision passed the validity
        predicate (invalid proposals can never gather votes)."""
        byzantine = {1: WeakBaCommitOnlyLeader(value=12345)}  # ints are invalid
        inputs = {p: "v" for p in config7.processes if p != 1}
        result = run_weak_ba(
            config7, inputs, STR_VALIDITY, byzantine=byzantine
        )
        decision = result.unanimous_decision()
        assert decision == "v"  # the invalid value went nowhere

    def test_lemma_15_finalize_uniqueness(self, config7):
        """Lemma 15: all in-phase decisions name one value; at most one
        finalize certificate exists (split-finalize adversary)."""
        byzantine = {
            1: WeakBaSplitFinalizeLeader(value="v", recipients=frozenset({2}))
        }
        inputs = {p: "v" for p in config7.processes if p != 1}
        result = run_weak_ba(
            config7, inputs, STR_VALIDITY, byzantine=byzantine
        )
        values = {
            e.get("value") for e in result.trace.named("wba_decided_in_phase")
        }
        assert len(values) <= 1
        result.unanimous_decision()

    def test_lemma_16_correct_leader_phase_decides_everyone(self, config7):
        """Lemma 16: with f < (n-t-1)/2, the first non-silent correct
        leader's phase leaves every correct process decided."""
        byzantine = {1: SilentBehavior()}  # f=1 < 1.5
        inputs = {p: "v" for p in config7.processes if p != 1}
        result = run_weak_ba(
            config7, inputs, STR_VALIDITY, byzantine=byzantine
        )
        # Phase 1's leader (p1) is silent; phase 2's leader p2 is the
        # first non-silent correct leader and everyone decides there.
        phases = {
            e.get("phase") for e in result.trace.named("wba_decided_in_phase")
        }
        assert phases == {2}
        deciders = {
            e.pid for e in result.trace.named("wba_decided_in_phase")
        }
        assert deciders == set(result.correct_pids)

    def test_lemma_17_fallback_entry_within_delta(self, config7):
        """Lemma 17: if some correct process executes the fallback, all
        do, starting at most δ apart."""
        byzantine = {p: SilentBehavior() for p in (1, 3, 5)}
        inputs = {p: "v" for p in config7.processes if p not in byzantine}
        result = run_weak_ba(
            config7, inputs, STR_VALIDITY, byzantine=byzantine
        )
        entries = {
            e.pid: e.tick
            for e in result.trace.named("fallback_started")
            if e.pid not in result.corrupted
        }
        assert set(entries) == set(result.correct_pids)
        assert max(entries.values()) - min(entries.values()) <= 1

    def test_lemma_19_pre_fallback_decisions_prevail(self, config7):
        """Lemma 19: a decision made before the fallback is what every
        correct process ends up with (split-finalize + fallback run)."""
        byzantine = {
            1: WeakBaSplitFinalizeLeader(value="early", recipients=frozenset({2})),
            3: SilentBehavior(),
            5: SilentBehavior(),
        }
        inputs = {
            p: f"other-{p}" for p in config7.processes if p not in byzantine
        }
        result = run_weak_ba(
            config7, inputs, STR_VALIDITY, byzantine=byzantine
        )
        assert result.unanimous_decision() == "early"

    def test_lemmas_20_to_23_via_verifier(self, config7):
        """Lemmas 20-23 (agreement, termination, unique validity,
        decide-once) over a batch of adversarial runs, via the
        structured verifier."""
        scenarios = [
            {},
            {2: SilentBehavior()},
            {1: SilentBehavior(), 4: SilentBehavior()},
            {p: SilentBehavior() for p in (1, 3, 5)},
        ]
        for byzantine in scenarios:
            inputs = {
                p: "v" for p in config7.processes if p not in byzantine
            }
            result = run_weak_ba(
                config7, inputs, STR_VALIDITY, byzantine=byzantine
            )
            report = verify_run(
                result,
                validity=lambda v: isinstance(v, str),
                allow_bottom=False,
                check_lemma6=True,
            )
            assert report.ok, report.summary()


class TestSection7Lemmas:
    def test_lemma_25_fallback_entry_within_delta(self, config7):
        """Lemma 25 (Alg. 5's version of Lemma 17)."""
        byzantine = {0: SilentBehavior()}  # kill the leader
        inputs = {p: 1 for p in config7.processes if p != 0}
        result = run_strong_ba(config7, inputs, byzantine=byzantine)
        entries = {
            e.pid: e.tick
            for e in result.trace.named("fallback_started")
            if e.pid not in result.corrupted
        }
        assert set(entries) == set(result.correct_pids)
        assert max(entries.values()) - min(entries.values()) <= 1

    def test_lemma_26_agreement_needs_all_n_decide_signatures(self, config7):
        """Lemma 26's mechanism: the decide certificate is n-of-n, so
        one missing process blocks any fast decision (see also
        tests/test_strong_ba_attacks.py for the equivocation case)."""
        byzantine = {6: SilentBehavior()}
        inputs = {p: 0 for p in config7.processes if p != 6}
        result = run_strong_ba(config7, inputs, byzantine=byzantine)
        assert not result.trace.any("sba_decided_fast")
        assert result.unanimous_decision() == 0

    def test_lemma_27_termination(self, config7):
        """Lemma 27: every correct process decides, with or without
        the fast path."""
        for byzantine in ({}, {0: SilentBehavior()}, {3: SilentBehavior()}):
            inputs = {
                p: 1 for p in config7.processes if p not in byzantine
            }
            result = run_strong_ba(config7, inputs, byzantine=byzantine)
            assert set(result.decisions) == set(result.correct_pids)

    def test_lemma_28_validity(self, config7):
        """Lemma 28 (strong unanimity), all failure counts."""
        for f in range(config7.t + 1):
            byzantine = {p: SilentBehavior() for p in range(1, f + 1)}
            inputs = {p: 1 for p in config7.processes if p not in byzantine}
            result = run_strong_ba(config7, inputs, byzantine=byzantine)
            assert result.unanimous_decision() == 1

    def test_lemma_29_decide_once(self, config7):
        """Lemma 29: decisions are updated at most once (trace audit)."""
        byzantine = {0: SilentBehavior()}
        inputs = {p: 1 for p in config7.processes if p != 0}
        result = run_strong_ba(config7, inputs, byzantine=byzantine)
        report = verify_run(result)
        assert report.ok, report.summary()
