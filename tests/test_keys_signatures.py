"""Unit tests for the PKI registry, signatures, and equivocation proofs."""

import pytest

from repro.crypto.keys import KeyRegistry
from repro.crypto.signatures import (
    EquivocationProof,
    Signature,
    SignedValue,
    sign_value,
)
from repro.errors import UnknownSignerError
from repro.metrics.words import payload_words


@pytest.fixture
def registry() -> KeyRegistry:
    return KeyRegistry(5, master_seed=b"test")


class TestSigning:
    def test_sign_verify_roundtrip(self, registry):
        signature = registry.sign(2, ("hello", 42))
        assert registry.verify(signature, ("hello", 42))

    def test_wrong_payload_rejected(self, registry):
        signature = registry.sign(2, ("hello", 42))
        assert not registry.verify(signature, ("hello", 43))

    def test_wrong_signer_claim_rejected(self, registry):
        signature = registry.sign(2, "msg")
        forged = Signature(signer=3, tag=signature.tag)
        assert not registry.verify(forged, "msg")

    def test_random_tag_rejected(self, registry):
        forged = Signature(signer=1, tag=b"\x00" * 32)
        assert not registry.verify(forged, "msg")

    def test_unknown_signer_raises(self, registry):
        with pytest.raises(UnknownSignerError):
            registry.sign(99, "msg")

    def test_verify_rejects_malformed_input(self, registry):
        good = registry.sign(1, "msg")
        assert not registry.verify(Signature(signer=99, tag=b"x"), "msg")
        assert not registry.verify(Signature(signer=[1], tag=good.tag), "msg")
        assert not registry.verify(Signature(signer=1, tag="junk"), "msg")
        assert not registry.verify("junk", "msg")
        assert not registry.verify(good, {"x": 1})

    def test_registries_with_different_seeds_are_independent(self):
        a = KeyRegistry(3, master_seed=b"a")
        b = KeyRegistry(3, master_seed=b"b")
        signature = a.sign(0, "msg")
        assert not b.verify(signature, "msg")

    def test_signature_is_one_word(self, registry):
        assert payload_words(registry.sign(0, "m")) == 1


class TestSigner:
    def test_signer_signs_as_its_pid(self, registry):
        signer = registry.signer_for(3)
        signature = signer.sign("payload")
        assert signature.signer == 3
        assert registry.verify(signature, "payload")

    def test_signer_for_unknown_pid_raises(self, registry):
        with pytest.raises(UnknownSignerError):
            registry.signer_for(7)


class TestSignedValue:
    def test_roundtrip(self, registry):
        signed = sign_value(registry.signer_for(1), ("v", 9))
        assert signed.signer == 1
        assert signed.verify(registry)

    def test_tampered_payload_fails(self, registry):
        signed = sign_value(registry.signer_for(1), "original")
        tampered = SignedValue(payload="changed", signature=signed.signature)
        assert not tampered.verify(registry)


class TestEquivocationProof:
    def test_valid_proof(self, registry):
        signer = registry.signer_for(2)
        proof = EquivocationProof(
            slot=("propose", 1),
            first=sign_value(signer, "a"),
            second=sign_value(signer, "b"),
        )
        assert proof.verify(registry)
        assert proof.culprit == 2

    def test_same_payload_is_not_equivocation(self, registry):
        signer = registry.signer_for(2)
        proof = EquivocationProof(
            slot="s", first=sign_value(signer, "a"), second=sign_value(signer, "a")
        )
        assert not proof.verify(registry)

    def test_different_signers_is_not_equivocation(self, registry):
        proof = EquivocationProof(
            slot="s",
            first=sign_value(registry.signer_for(1), "a"),
            second=sign_value(registry.signer_for(2), "b"),
        )
        assert not proof.verify(registry)

    def test_forged_half_fails(self, registry):
        signer = registry.signer_for(2)
        good = sign_value(signer, "a")
        forged = SignedValue(payload="b", signature=good.signature)
        proof = EquivocationProof(slot="s", first=good, second=forged)
        assert not proof.verify(registry)
