"""Unit tests for CryptoSuite, quorum certificates, and collectors."""

from dataclasses import replace

import pytest

from repro.crypto.canonical import encode
from repro.crypto.certificates import (
    CertificateCollector,
    CryptoSuite,
    QuorumCertificate,
    _bind,
)
from repro.crypto.threshold import digest_from_bytes
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

    def test_committee_is_interned_per_suite(self, config7, suite7):
        members, member_set = suite7.committee((1, 2, 4))
        again = suite7.committee(tuple([1, 2, 4]))
        assert again[0] is members and again[1] is member_set
        assert members == (1, 2, 4) and member_set == frozenset({1, 2, 4})
        assert suite7.scheme("c", 2, member_set) is suite7.scheme(
            "c", 2, frozenset({1, 2, 4})
        )
        assert CryptoSuite(config7, seed=42).committee(members)[1] is not member_set

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
        # "²".isdigit() holds, but int("²") raises: only ASCII digits parse.
        assert suite7.scheme_by_id("a|k=²") is None
        cert = make_cert(suite7, "a", 2, "v", range(2))
        hostile = replace(
            cert, signature=replace(cert.signature, scheme_id="a|k=²")
        )
        assert not hostile.verify(suite7)

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

    def test_list_twin_of_a_signed_tuple_rejected(self, suite7):
        """A list encodes like the tuple it mimics, so the signature
        matches; but callers key sets and dicts by certified payloads,
        and a list would crash them."""
        cert = make_cert(suite7, "l", 3, ("a", "b"), range(3))
        twin = replace(cert, payload=["a", "b"])
        assert encode(twin.payload) == encode(cert.payload)
        assert not suite7.verify_certificate(twin, "l", 3)
        assert not twin.verify(suite7)
        assert suite7.verify_certificate(cert, "l", 3)


class TestStatementMemo:
    """``_bound`` memoizes by identity, and a plain tuple by the
    identities of its elements; neither may change what is encoded, and
    a payload that can change is never memoized."""

    @staticmethod
    def expected(label, payload):
        encoded = encode(_bind(label, payload))
        return encoded, digest_from_bytes(encoded)

    def test_bound_equals_a_fresh_encode(self, suite7):
        x = ("v", 1)
        big = 10**30
        statements = [
            ("c", True, 1), ("c", 1, 1), (x,), x, ((x,),), (x, (x,)),
            ("c", big, None), ("c", big + 0, None), (), [x], "s", None,
        ]
        # Each order twice: the first pass fills the memo, the second hits.
        for order in (statements, statements[::-1]):
            for _ in range(2):
                for label in ("lbl", "other"):
                    for payload in order:
                        expected = self.expected(label, payload)
                        assert suite7._bound(label, payload) == expected
                        if type(payload) is tuple:  # same elements, new tuple
                            rebuilt = tuple(list(payload))
                            assert suite7._bound(label, rebuilt) == expected
            suite7._bind_memo.clear()

    def test_rebuilt_tuples_are_encoded_once(self, suite7, monkeypatch):
        from repro.crypto import certificates

        encoded = []
        monkeypatch.setattr(
            certificates, "encode", lambda v: encoded.append(v) or encode(v)
        )
        value = ("proposal", 7)
        for level in range(3):
            for _ in range(5):  # one fresh statement per signer
                suite7._bound("commit", ("commit", value, level))
        assert len(encoded) == 3
        equal = tuple(["proposal", 7])  # equal to value, not the same object
        suite7._bound("commit", ("commit", equal, 0))
        assert len(encoded) == 4

    def test_mutated_elements_are_encoded_afresh(self, suite7):
        from dataclasses import dataclass

        @dataclass
        class Box:
            item: int

        items, box = [1], Box(1)
        for mutate in (False, True):
            if mutate:
                items[0] = box.item = 2
            # Fresh tuples around the same, now changed, objects.
            for payload in (("c", items, 1), ("c", (box,), 1), items, box):
                assert suite7._bound("l", payload) == self.expected("l", payload)
        assert not suite7._bind_memo


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
