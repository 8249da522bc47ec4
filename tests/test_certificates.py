"""Unit tests for CryptoSuite, quorum certificates, and collectors."""

import pytest

from repro.crypto.certificates import (
    CertificateCollector,
    CryptoSuite,
    QuorumCertificate,
)
from repro.errors import ThresholdError
from repro.metrics.words import payload_words


def make_cert(suite, label, k, payload, signers):
    partials = [
        suite.partial_for_certificate(pid, label, k, payload) for pid in signers
    ]
    return suite.combine_certificate(label, k, payload, partials)


class TestSuiteSchemes:
    def test_scheme_is_cached(self, config7, suite7):
        assert suite7.scheme("x", 3) is suite7.scheme("x", 3)

    def test_dealt_scheme_memo_is_bounded_and_evicts_oldest_first(self, config5):
        """Every ledger op has a fresh seed: the cross-suite memo must not
        grow with the number of decisions a process has run."""
        from repro.crypto import certificates

        certificates.clear_caches()
        cap = certificates._SCHEME_CACHE_CAP
        dealt = [
            CryptoSuite(config5, seed=seed).scheme("x", 2)
            for seed in range(cap + 3)
        ]
        assert len(certificates._SCHEME_CACHE) == cap <= 128
        assert CryptoSuite(config5, seed=cap + 2).scheme("x", 2) is dealt[-1]
        assert CryptoSuite(config5, seed=3).scheme("x", 2) is dealt[3]
        assert CryptoSuite(config5, seed=0).scheme("x", 2) is not dealt[0]

    def test_distinct_labels_distinct_schemes(self, suite7):
        a = suite7.scheme("a", 3)
        b = suite7.scheme("b", 3)
        assert a.scheme_id != b.scheme_id

    def test_scheme_by_id_roundtrip(self, suite7):
        scheme = suite7.scheme("label", 4)
        assert suite7.scheme_by_id(scheme.scheme_id) is scheme

    def test_scheme_by_id_parses_unseen(self, config7, suite7):
        other = CryptoSuite(config7, seed=42)
        scheme = other.scheme("fresh", 2)
        resolved = suite7.scheme_by_id(scheme.scheme_id)
        assert resolved is not None
        assert resolved.k == 2

    def test_scheme_by_id_with_members(self, suite7):
        scheme = suite7.scheme("com", 2, frozenset({1, 2, 4}))
        resolved = suite7.scheme_by_id(scheme.scheme_id)
        assert resolved.members == frozenset({1, 2, 4})

    def test_scheme_by_id_garbage(self, suite7):
        assert suite7.scheme_by_id("nonsense") is None
        assert suite7.scheme_by_id("a|k=999") is None
        assert suite7.scheme_by_id("a|k=2|m=1,zzz") is None

    def test_same_seed_same_schemes_across_instances(self, config7):
        a = CryptoSuite(config7, seed=7)
        b = CryptoSuite(config7, seed=7)
        cert = make_cert(a, "l", 3, "payload", range(3))
        assert cert.verify(b)

    def test_different_seed_rejects(self, config7):
        a = CryptoSuite(config7, seed=7)
        b = CryptoSuite(config7, seed=8)
        cert = make_cert(a, "l", 3, "payload", range(3))
        assert not cert.verify(b)


class TestCertificates:
    def test_roundtrip(self, config7, suite7):
        cert = make_cert(suite7, "commit", config7.commit_quorum, ("v", 1),
                         range(config7.commit_quorum))
        assert cert.verify(suite7)
        assert suite7.verify_certificate(cert, "commit", config7.commit_quorum)
        assert payload_words(cert) == 1
        assert cert.signatures() == config7.commit_quorum

    def test_strict_verification_pins_quorum_size(self, suite7):
        """A certificate from a k=1 scheme must not pass as a k=4 one —
        the downgrade-forgery guard."""
        low = make_cert(suite7, "commit", 1, "v", [0])
        assert low.verify(suite7)  # valid under its own scheme
        assert not suite7.verify_certificate(low, "commit", 4)

    def test_strict_verification_pins_label(self, suite7):
        cert = make_cert(suite7, "idk", 4, "v", range(4))
        assert not suite7.verify_certificate(cert, "commit", 4)

    def test_strict_verification_pins_members(self, suite7):
        committee = frozenset({0, 1, 2})
        partials = [
            suite7.partial_for_certificate(pid, "c", 2, "v", committee)
            for pid in (0, 1)
        ]
        cert = suite7.combine_certificate("c", 2, "v", partials, committee)
        assert suite7.verify_certificate(cert, "c", 2, committee)
        assert not suite7.verify_certificate(cert, "c", 2, frozenset({3, 4, 5}))
        assert not suite7.verify_certificate(cert, "c", 2)

    def test_payload_substitution_rejected(self, suite7):
        cert = make_cert(suite7, "l", 3, "real", range(3))
        fake = QuorumCertificate(label="l", payload="fake", signature=cert.signature)
        assert not fake.verify(suite7)

    def test_non_certificate_rejected(self, suite7):
        assert not suite7.verify_certificate("garbage", "l", 3)
        assert not suite7.verify_certificate(None, "l", 3)


class TestCollector:
    def test_collects_to_completion(self, config7, suite7):
        collector = CertificateCollector(suite7, "l", 3, "v")
        for pid in range(3):
            partial = suite7.partial_for_certificate(pid, "l", 3, "v")
            collector.add(partial)
        assert collector.complete
        assert collector.certificate().verify(suite7)

    def test_ignores_duplicates(self, suite7):
        collector = CertificateCollector(suite7, "l", 3, "v")
        partial = suite7.partial_for_certificate(0, "l", 3, "v")
        collector.add(partial)
        collector.add(partial)
        assert collector.count == 1

    def test_ignores_invalid_partials(self, suite7):
        collector = CertificateCollector(suite7, "l", 3, "v")
        wrong_payload = suite7.partial_for_certificate(0, "l", 3, "other")
        collector.add(wrong_payload)
        assert collector.count == 0

    def test_premature_certificate_raises(self, suite7):
        collector = CertificateCollector(suite7, "l", 3, "v")
        with pytest.raises(ThresholdError):
            collector.certificate()

    def test_committee_collector_rejects_outsiders(self, suite7):
        committee = frozenset({0, 1, 2})
        collector = CertificateCollector(suite7, "c", 2, "v", committee)
        outsider_partial = suite7.partial_for_certificate(5, "c", 2, "v")
        collector.add(outsider_partial)
        assert collector.count == 0
