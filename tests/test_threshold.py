"""Unit tests for the Shamir-based threshold signature scheme."""

import hashlib
import random
from dataclasses import replace

import pytest

from repro.crypto.field import PRIME
from repro.crypto.threshold import ThresholdScheme, ThresholdSignature, message_digest
from repro.errors import (
    DuplicateShareError,
    InsufficientSharesError,
    ThresholdError,
    UnknownSignerError,
)
from repro.metrics.words import payload_words
from tests.test_field import reference_evaluate, reference_lagrange


@pytest.fixture
def scheme() -> ThresholdScheme:
    return ThresholdScheme("test", k=4, n=7, seed=b"s")


class TestPartials:
    def test_partial_verifies(self, scheme):
        partial = scheme.partial_sign(2, "msg")
        assert scheme.verify_partial(partial, "msg")

    def test_partial_wrong_message_rejected(self, scheme):
        partial = scheme.partial_sign(2, "msg")
        assert not scheme.verify_partial(partial, "other")

    def test_partial_from_wrong_scheme_rejected(self, scheme):
        other = ThresholdScheme("other", k=4, n=7, seed=b"s")
        partial = other.partial_sign(2, "msg")
        assert not scheme.verify_partial(partial, "msg")

    def test_unknown_share_holder(self, scheme):
        with pytest.raises(UnknownSignerError):
            scheme.partial_sign(10, "msg")


class TestCombine:
    def test_any_k_subset_combines_to_same_signature(self, scheme):
        partials = [scheme.partial_sign(pid, "m") for pid in range(7)]
        sig_a = scheme.combine(partials[:4])
        sig_b = scheme.combine(partials[3:])
        assert sig_a.value == sig_b.value
        assert scheme.verify(sig_a, "m")
        assert scheme.verify(sig_b, "m")

    def test_combined_signature_is_one_word(self, scheme):
        partials = [scheme.partial_sign(pid, "m") for pid in range(4)]
        assert payload_words(scheme.combine(partials)) == 1

    def test_insufficient_shares_rejected(self, scheme):
        partials = [scheme.partial_sign(pid, "m") for pid in range(3)]
        with pytest.raises(InsufficientSharesError):
            scheme.combine(partials)
        with pytest.raises(InsufficientSharesError):
            scheme.combine([])

    def test_duplicate_signer_rejected(self, scheme):
        partial = scheme.partial_sign(0, "m")
        others = [scheme.partial_sign(pid, "m") for pid in range(1, 4)]
        with pytest.raises(DuplicateShareError):
            scheme.combine([partial, partial, *others])

    def test_mixed_messages_rejected(self, scheme):
        partials = [scheme.partial_sign(pid, "m") for pid in range(3)]
        partials.append(scheme.partial_sign(3, "different"))
        with pytest.raises(ThresholdError):
            scheme.combine(partials)

    def test_mixed_schemes_rejected(self, scheme):
        other = ThresholdScheme("other", k=4, n=7, seed=b"s")
        partials = [scheme.partial_sign(pid, "m") for pid in range(3)]
        partials.append(other.partial_sign(3, "m"))
        with pytest.raises(ThresholdError):
            scheme.combine(partials)


class TestVerification:
    def test_wrong_message_rejected(self, scheme):
        partials = [scheme.partial_sign(pid, "m") for pid in range(4)]
        signature = scheme.combine(partials)
        assert not scheme.verify(signature, "other")

    def test_forged_value_rejected(self, scheme):
        partials = [scheme.partial_sign(pid, "m") for pid in range(4)]
        signature = scheme.combine(partials)
        forged = ThresholdSignature(
            scheme_id=signature.scheme_id,
            digest=signature.digest,
            value=(signature.value + 1),
            k=signature.k,
        )
        assert not scheme.verify(forged, "m")

    def test_below_threshold_forgery_fails(self, scheme):
        """k-1 colluding holders cannot produce a verifying signature by
        interpolating what they have."""
        from repro.crypto import field

        partials = [scheme.partial_sign(pid, "m") for pid in range(3)]
        points = [(p.signer + 1, p.value) for p in partials]
        guess = field.interpolate_at_zero(points)
        forged = ThresholdSignature(
            scheme_id=partials[0].scheme_id,
            digest=partials[0].digest,
            value=guess,
            k=scheme.k,
        )
        assert not scheme.verify(forged, "m")


class TestCommitteeRestriction:
    def test_members_only_hold_shares(self):
        scheme = ThresholdScheme(
            "committee", k=2, n=7, seed=b"s", members=frozenset({1, 3, 5})
        )
        assert scheme.members == frozenset({1, 3, 5})
        partial = scheme.partial_sign(3, "m")
        assert scheme.verify_partial(partial, "m")
        with pytest.raises(UnknownSignerError):
            scheme.partial_sign(0, "m")

    def test_k_bounded_by_committee_size(self):
        with pytest.raises(ThresholdError):
            ThresholdScheme("c", k=4, n=7, seed=b"s", members=frozenset({1, 2}))

    def test_members_outside_range_rejected(self):
        with pytest.raises(ThresholdError):
            ThresholdScheme("c", k=1, n=3, seed=b"s", members=frozenset({5}))

    def test_invalid_k_rejected(self):
        with pytest.raises(ThresholdError):
            ThresholdScheme("bad", k=0, n=5)
        with pytest.raises(ThresholdError):
            ThresholdScheme("bad", k=6, n=5)


def _reference_combine(partials) -> int:
    """Interpolation at zero built from the O(k^2) Lagrange oracle."""
    coefficients = reference_lagrange(tuple(p.signer + 1 for p in partials))
    return sum(c * p.value for c, p in zip(coefficients, partials)) % PRIME


def _reference_shares(scheme_id, k, n, seed, holders) -> dict[int, int]:
    """An eager dealer: the documented coefficient derivation, every
    holder's share evaluated up front with the per-step Horner oracle."""
    material = hashlib.sha256(
        b"dealer|" + seed + scheme_id.encode() + f"|{k}|{n}".encode()
    ).digest()
    coefficients = [
        int.from_bytes(hashlib.sha256(material + i.to_bytes(4, "big")).digest(), "big")
        % PRIME
        for i in range(k)
    ]
    coefficients[0] = coefficients[0] or 1
    return {pid: reference_evaluate(coefficients, pid + 1) for pid in holders}


class TestLazyDealing:
    """Shares are evaluated on first use; every value must be the one an
    eager dealer hands out, whatever order the holders sign in."""

    @pytest.mark.parametrize("members", [None, frozenset({0, 2, 3, 7, 8})])
    def test_partials_equal_the_eager_dealers(self, members):
        holders = sorted(members) if members is not None else list(range(9))
        shares = _reference_shares("lazy", 3, 9, b"d", holders)
        scheme = ThresholdScheme("lazy", k=3, n=9, seed=b"d", members=members)
        assert scheme._shares == {}  # dealing evaluated no share
        digest = message_digest("m")
        for pid in reversed(holders):
            partial = scheme.partial_sign(pid, "m")
            assert partial.value == shares[pid] * digest % PRIME
        assert scheme._shares == shares
        outsiders = [pid for pid in range(-1, 11) if pid not in shares]
        for pid in outsiders:
            with pytest.raises(UnknownSignerError):
                scheme.partial_sign(pid, "m")
        assert set(scheme._shares) == set(shares)

    def test_a_float_signer_cannot_poison_a_members_share(self):
        scheme = ThresholdScheme("lazy", k=2, n=7, seed=b"d")
        honest = ThresholdScheme("lazy", k=2, n=7, seed=b"d").partial_sign(1, "m")
        assert scheme.verify_partial(replace(honest, signer=1.0), "m")
        assert scheme.verify_partial(honest, "m")
        assert scheme.partial_sign(1, "m") == honest

    def test_batch_verification_of_a_non_member_returns_a_verdict(self):
        committee = frozenset({1, 3, 5})
        scheme = ThresholdScheme("lazy", k=2, n=7, seed=b"d", members=committee)
        outsider = ThresholdScheme("lazy", k=2, n=7, seed=b"d").partial_sign(0, "m")
        # Signed under an identical scheme, so `scheme` has dealt nothing
        # when it verifies.
        twin = ThresholdScheme("lazy", k=2, n=7, seed=b"d", members=committee)
        partials = [twin.partial_sign(pid, "m") for pid in (5, 1)] + [outsider]
        assert scheme.verify_partials(partials, "m") == [True, True, False]
        assert scheme.verify_partials(partials[:2], "m") == [True, True]
        assert scheme.verify_partials([outsider], "m") == [False]
        assert not scheme.verify_partial(outsider, "m")


class TestCacheTransparency:
    """Every memo in ``repro.crypto`` must be observationally invisible:
    each is checked against the computation it wraps, including
    rejections."""

    def test_lagrange_cache_matches_direct_computation(self):
        from repro.crypto.field import lagrange_coefficients_at_zero

        rng = random.Random(7)
        for _ in range(50):
            xs = tuple(
                sorted(rng.sample(range(1, 40), rng.randrange(1, 12)))
            )
            reference = list(reference_lagrange(xs))
            assert lagrange_coefficients_at_zero(xs) == reference  # may miss
            assert lagrange_coefficients_at_zero(xs) == reference  # hits

    def test_combine_memo_matches_reference_interpolation(self):
        rng = random.Random(0xC0FFEE)
        scheme = ThresholdScheme("prop", k=4, n=9, seed=b"p")
        for trial in range(30):
            message = ("stmt", trial, rng.randrange(10_000))
            partials = [
                scheme.partial_sign(pid, message)
                for pid in rng.sample(range(9), 4)
            ]
            reordered = partials[::-1]
            victim = partials[rng.randrange(4)]
            forged = [
                replace(p, value=p.value + 1) if p is victim else p
                for p in partials
            ]
            signature = scheme.combine(partials)
            assert scheme.verify(signature, message)
            for subset in (partials, partials, reordered, forged):
                combined = scheme.combine(subset)
                assert combined.value == _reference_combine(subset)
                assert scheme.verify(combined, message) == (subset is not forged)

    def test_certificate_verdict_memo_rejects_doctored_signatures(self, config7):
        from repro.crypto.certificates import CryptoSuite

        suite = CryptoSuite(config7, seed=42)
        k = config7.small_quorum
        partials = [
            suite.partial_for_certificate(pid, "lbl", k, "s") for pid in range(k)
        ]
        certificate = suite.combine_certificate("lbl", k, "s", partials)
        assert suite.verify_certificate(certificate, "lbl", k)  # warm accept
        signature = certificate.signature
        for doctored in (
            replace(signature, value=signature.value + 1),
            replace(signature, digest=signature.digest + 1),
            replace(signature, scheme_id=suite.scheme("lbl", k + 1).scheme_id),
            replace(signature, k=k + 1),
        ):
            forged = replace(certificate, signature=doctored)
            for _ in range(2):  # the first call fills the memo, the second hits it
                assert not suite.verify_certificate(forged, "lbl", k)
        assert suite.verify_certificate(certificate, "lbl", k)

    def test_signed_object_verdict_memo_keys_on_scheme_and_statement(self, config7):
        """A warm accept of one certificate object is never reused for
        another label, quorum or committee, a doctored copy misses the
        memo, and a payload that can change is never stored."""
        from repro.crypto.certificates import CryptoSuite

        suite = CryptoSuite(config7, seed=42)
        _, committee = suite.committee((0, 1, 2, 3, 4))
        _, other_committee = suite.committee((0, 1, 2, 3, 5))
        k = 3
        partials = [
            suite.partial_for_certificate(pid, "lbl", k, ("s", 1), committee)
            for pid in range(k)
        ]
        certificate = suite.combine_certificate("lbl", k, ("s", 1), partials, committee)
        for _ in range(2):  # the first call fills the memo, the second hits it
            assert suite.verify_certificate(certificate, "lbl", k, committee)
        assert any(v[0] is certificate for v in suite._verdicts.values())
        for label, quorum, members in (
            ("other", k, committee),
            ("lbl", k + 1, committee),
            ("lbl", k, other_committee),
            ("lbl", k, None),
        ):
            for _ in range(2):
                assert not suite.verify_certificate(certificate, label, quorum, members)
        forged = replace(certificate.signature, value=certificate.signature.value + 1)
        for doctored in (
            replace(certificate, payload=("s", 2)),
            replace(certificate, signature=forged),
        ):
            for _ in range(2):
                assert not suite.verify_certificate(doctored, "lbl", k, committee)
        size = len(suite._verdicts)
        twin = replace(certificate, payload=["s", 1])
        for _ in range(2):
            assert not suite.verify_certificate(twin, "lbl", k, committee)
        assert len(suite._verdicts) == size
        assert suite.verify_certificate(certificate, "lbl", k, committee)

    def test_partial_verdict_memo_keys_on_the_collectors_digest(self, config7):
        from repro.crypto.certificates import CertificateCollector, CryptoSuite

        suite = CryptoSuite(config7, seed=42)
        partial = suite.partial_for_certificate(0, "lbl", 3, "v")
        accepting = CertificateCollector(suite, "lbl", 3, "v")
        accepting.add(partial)
        assert accepting.count == 1  # a warm accept
        for other in (
            CertificateCollector(suite, "lbl", 3, "w"),  # another digest
            CertificateCollector(suite, "lbl", 4, "v"),  # another scheme
        ):
            for _ in range(2):
                other.add(partial)
            assert other.count == 0
        doctored = replace(partial, value=partial.value + 1)
        fresh = CertificateCollector(suite, "lbl", 3, "v")
        fresh.add(doctored)
        assert fresh.count == 0
        fresh.add(partial)
        assert fresh.count == 1

    def test_verdict_memo_is_bounded(self, config7):
        from repro.crypto.certificates import CryptoSuite

        suite = CryptoSuite(config7, seed=42)
        suite._CERT_CACHE_CAP = 4
        for i in range(10):
            payload = ("s", i)
            partials = [
                suite.partial_for_certificate(pid, "lbl", 3, payload)
                for pid in range(3)
            ]
            certificate = suite.combine_certificate("lbl", 3, payload, partials)
            assert suite.verify_certificate(certificate, "lbl", 3)
            assert len(suite._verdicts) <= 4

    def test_dealt_scheme_memo_matches_a_directly_dealt_scheme(self, config7):
        from repro.crypto import certificates

        certificates.clear_caches()
        other = certificates.CryptoSuite(config7, seed=8)
        first = certificates.CryptoSuite(config7, seed=9)
        second = certificates.CryptoSuite(config7, seed=9)
        for members in (None, frozenset({1, 2, 4, 6})):
            other.scheme("lbl", 3, members)  # same id, another master seed
            scheme = second.scheme("lbl", 3, members)
            assert scheme is first.scheme("lbl", 3, members)  # memo hit
            direct = ThresholdScheme(
                scheme.scheme_id, 3, config7.n, first._master_seed, members
            )
            statement = certificates._bind("lbl", "s")
            for pid in members or config7.processes:
                assert second.partial_for_certificate(
                    pid, "lbl", 3, "s", members
                ) == direct.partial_sign(pid, statement)

    def test_batch_partial_verification_matches_sequential(self):
        rng = random.Random(11)
        scheme = ThresholdScheme("batch", k=3, n=7, seed=b"b")
        for trial in range(20):
            message = ("m", trial)
            partials = [scheme.partial_sign(pid, message) for pid in range(7)]
            if trial % 2:  # corrupt one share; the batch must not mask it
                victim = rng.randrange(7)
                partials[victim] = replace(
                    partials[victim], value=partials[victim].value + 1
                )
            sequential = [scheme.verify_partial(p, message) for p in partials]
            batch = scheme.verify_partials(partials, message)
            assert batch == sequential
