"""Tests for the unique-validity predicate framework."""

from repro.core.validity import (
    IDK_LABEL,
    AlwaysValid,
    BroadcastValidity,
    CertifiedValidity,
    CertifiedValue,
    ExternalValidity,
    input_label,
    input_statement,
)
from repro.core.values import BOTTOM
from repro.crypto.signatures import SignedValue, sign_value


def make_idk_cert(suite, config, statement="idk:bb", signers=None):
    signers = signers if signers is not None else range(config.small_quorum)
    partials = [
        suite.partial_for_certificate(pid, IDK_LABEL, config.small_quorum, statement)
        for pid in signers
    ]
    return suite.combine_certificate(
        IDK_LABEL, config.small_quorum, statement, partials
    )


class TestBroadcastValidity:
    def test_sender_signed_value_valid(self, config7, suite7):
        validity = BroadcastValidity(suite7, config7, sender=0)
        assert validity.validate(sign_value(suite7.signer(0), "v"))

    def test_other_process_signature_invalid(self, config7, suite7):
        validity = BroadcastValidity(suite7, config7, sender=0)
        assert not validity.validate(sign_value(suite7.signer(1), "v"))

    def test_tampered_sender_value_invalid(self, config7, suite7):
        validity = BroadcastValidity(suite7, config7, sender=0)
        signed = sign_value(suite7.signer(0), "v")
        tampered = SignedValue(payload="w", signature=signed.signature)
        assert not validity.validate(tampered)

    def test_idk_certificate_valid(self, config7, suite7):
        validity = BroadcastValidity(suite7, config7, sender=0)
        assert validity.validate(make_idk_cert(suite7, config7))

    def test_low_quorum_idk_cert_invalid(self, config7, suite7):
        """Downgrade guard: an idk 'certificate' from a k=1 scheme must
        not satisfy BB_valid."""
        partials = [suite7.partial_for_certificate(3, IDK_LABEL, 1, "idk:bb")]
        cert = suite7.combine_certificate(IDK_LABEL, 1, "idk:bb", partials)
        validity = BroadcastValidity(suite7, config7, sender=0)
        assert not validity.validate(cert)

    def test_garbage_invalid(self, config7, suite7):
        validity = BroadcastValidity(suite7, config7, sender=0)
        for garbage in (None, BOTTOM, "string", 42, ("tuple",)):
            assert not validity.validate(garbage)

    def test_callable_interface(self, config7, suite7):
        validity = BroadcastValidity(suite7, config7, sender=0)
        assert validity(sign_value(suite7.signer(0), "v"))


def make_input_value(suite, config, value="v", session="asba"):
    """``value`` with a ``t+1`` input certificate minted in ``session``."""
    label, quorum = input_label(session), config.small_quorum
    partials = [
        suite.partial_for_certificate(pid, label, quorum, input_statement(value))
        for pid in range(quorum)
    ]
    certificate = suite.combine_certificate(
        label, quorum, input_statement(value), partials
    )
    return CertifiedValue(value).with_certificate(certificate)


class TestSignedInputsValidity:
    """Section 3's signed-inputs predicate, :class:`CertifiedValidity`:
    valid iff ``t+1`` processes signed the value as their input."""

    def test_input_certificate_valid(self, config7, suite7):
        validity = CertifiedValidity(suite7, config7, "asba")
        assert validity.validate(make_input_value(suite7, config7))

    def test_wrong_label_invalid(self, config7, suite7):
        cert = CertifiedValue("v").with_certificate(make_idk_cert(suite7, config7))
        assert not CertifiedValidity(suite7, config7, "asba").validate(cert)

    def test_non_certificate_invalid(self, config7, suite7):
        validity = CertifiedValidity(suite7, config7, "asba")
        assert not validity.validate("v")

    def test_certificate_of_another_session_invalid(self, config7, suite7):
        """The label is session-scoped: a certificate minted for one
        instance cannot certify an input of another."""
        minted = make_input_value(suite7, config7, session="asba")
        assert not CertifiedValidity(suite7, config7, "civit").validate(minted)


class TestExternalValidity:
    def test_wraps_predicate(self):
        validity = ExternalValidity(lambda v: isinstance(v, int) and v > 0)
        assert validity.validate(3)
        assert not validity.validate(-1)
        assert not validity.validate("x")

    def test_swallows_exceptions(self):
        def explosive(v):
            raise RuntimeError("boom")

        assert not ExternalValidity(explosive).validate("anything")


class TestAlwaysValid:
    def test_rejects_only_none_and_bottom(self):
        validity = AlwaysValid()
        assert validity.validate("x")
        assert validity.validate(0)
        assert not validity.validate(None)
        assert not validity.validate(BOTTOM)
