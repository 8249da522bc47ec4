"""End-to-end forgery rejection: adversaries inject *plausible-looking*
certificates everywhere the protocols accept one, and every forgery
must bounce off the strict verification layer.

The common forgery shapes:

* **downgrade** — a real certificate from a lower-threshold scheme of
  the same label (defeated by pinning ``k`` in ``verify_certificate``);
* **rebind** — a real signature stapled to a different payload
  (defeated by the signed ``(label, payload)`` binding);
* **fabrication** — made-up signature values (defeated by the scheme).
"""

from dataclasses import dataclass

from repro.adversary.behaviors import FallbackForcer
from repro.core.byzantine_broadcast import BbPhaseResult, run_byzantine_broadcast
from repro.core.validity import IDK_LABEL
from repro.core.weak_ba import (
    WbaFallbackCert,
    WbaHelp,
    fallback_label,
    run_weak_ba,
)
from repro.core.validity import ExternalValidity
from repro.crypto.certificates import QuorumCertificate
from repro.crypto.threshold import ThresholdSignature
from repro.runtime.byzantine import ByzantineApi

VALIDITY = lambda suite, cfg: ExternalValidity(lambda v: isinstance(v, str))


@dataclass
class DowngradedIdkForger:
    """Builds a *valid* idk certificate under a k=1 scheme (just its own
    share) and pushes it as a BB phase result: the BB_valid check must
    reject the downgrade."""

    session: str = "bb"

    def step(self, api: ByzantineApi) -> None:
        if api.now != 2:
            return
        statement = f"idk:{self.session}"
        partial = api.suite.partial_for_certificate(
            api.pid, IDK_LABEL, 1, statement
        )
        certificate = api.suite.combine_certificate(
            IDK_LABEL, 1, statement, [partial]
        )
        for phase in (1, 2, 3):
            api.broadcast(
                BbPhaseResult(
                    session=self.session, phase=phase, value=certificate
                )
            )


@dataclass
class FabricatedHelpForger:
    """Answers every help request with a fabricated finalize proof."""

    session: str = "wba"

    def step(self, api: ByzantineApi) -> None:
        fake_signature = ThresholdSignature(
            scheme_id=f"wba-fin:{self.session}|k={api.config.commit_quorum}",
            digest=12345,
            value=67890,
            k=api.config.commit_quorum,
        )
        fake_proof = QuorumCertificate(
            label=f"wba-fin:{self.session}",
            payload=("finalized", "forged!", 1),
            signature=fake_signature,
        )
        api.broadcast(
            WbaHelp(
                session=self.session,
                value="forged!",
                proof=fake_proof,
                proof_phase=1,
            )
        )


@dataclass
class RebindingFallbackForger:
    """Takes a *real* fallback certificate's signature and rebinds it to
    a different statement; also fabricates one outright."""

    session: str = "wba"

    def step(self, api: ByzantineApi) -> None:
        fake_signature = ThresholdSignature(
            scheme_id=f"wba-fb:{self.session}|k={api.config.small_quorum}",
            digest=1,
            value=2,
            k=api.config.small_quorum,
        )
        api.broadcast(
            WbaFallbackCert(
                session=self.session,
                certificate=QuorumCertificate(
                    label=fallback_label(self.session),
                    payload="start-fallback",
                    signature=fake_signature,
                ),
                value="forged!",
                proof=None,
                proof_phase=0,
            )
        )


class TestForgeries:
    def test_downgraded_idk_certificate_rejected(self, config7):
        """With a *correct* sender, a downgrade-forged idk certificate
        would let the adversary beat Lemma 10 and create a second valid
        value.  It must not: the sender's value wins unanimously."""
        result = run_byzantine_broadcast(
            config7,
            sender=0,
            value="real",
            byzantine={3: DowngradedIdkForger()},
        )
        assert result.unanimous_decision() == "real"

    def test_fabricated_help_proof_rejected(self, config7):
        """A forged finalize proof in a help answer must not install a
        decision: everyone still decides the real value."""
        byzantine = {2: FabricatedHelpForger()}
        inputs = {p: "v" for p in config7.processes if p != 2}
        result = run_weak_ba(config7, inputs, VALIDITY, byzantine=byzantine)
        assert result.unanimous_decision() == "v"

    def test_fabricated_fallback_certificate_rejected(self, config7):
        """A fabricated fallback certificate must not drag decided
        processes into the quadratic fallback."""
        byzantine = {4: RebindingFallbackForger()}
        inputs = {p: "v" for p in config7.processes if p != 4}
        result = run_weak_ba(config7, inputs, VALIDITY, byzantine=byzantine)
        assert result.unanimous_decision() == "v"
        assert not result.fallback_was_used()

    def test_help_req_flood_cannot_force_fallback(self, config7):
        """FallbackForcer floods signed help requests from its own key
        every tick — but a fallback certificate needs t+1 *distinct*
        signers, and with everyone decided no correct process ever
        contributes.  The adaptive path must survive."""

        def make_help_req(api):
            from repro.core.weak_ba import FALLBACK_STATEMENT, WbaHelpReq

            return WbaHelpReq(
                session="wba",
                partial=api.suite.partial_for_certificate(
                    api.pid,
                    fallback_label("wba"),
                    api.config.small_quorum,
                    FALLBACK_STATEMENT,
                ),
            )

        byzantine = {5: FallbackForcer(payload_factory=make_help_req)}
        inputs = {p: "v" for p in config7.processes if p != 5}
        result = run_weak_ba(config7, inputs, VALIDITY, byzantine=byzantine)
        assert result.unanimous_decision() == "v"
        assert not result.fallback_was_used()
        # Decided processes answered the (valid-looking) requests — the
        # O(n * requests) help cost the paper budgets for — but nothing
        # more.
        help_words = result.ledger.words_by_payload_type().get("WbaHelp", 0)
        assert help_words > 0
