"""Unit tests for CryptoSuite, quorum certificates, and collectors."""

import pickle
from dataclasses import dataclass, fields, replace

import pytest

from repro.adversary.protocol_attacks import Reach, WeakBaLeader
from repro.config import SystemConfig
from repro.core.validity import ExternalValidity
from repro.core.weak_ba import weak_ba_protocol
from repro.crypto.canonical import encode
from repro.crypto.certificates import (
    CertificateCollector,
    CryptoSuite,
    QuorumCertificate,
    _bind,
)
from repro.crypto.threshold import ThresholdSignature, digest_from_bytes
from repro.errors import ThresholdError
from repro.metrics.words import payload_signatures, payload_words
from repro.runtime.scheduler import Simulation


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

    def test_same_seed_same_schemes_across_instances(self, config7):
        a = CryptoSuite(config7, seed=7)
        b = CryptoSuite(config7, seed=7)
        cert = make_cert(a, "l", 3, "payload", range(3))
        assert b.verify_certificate(cert, "l", 3)

    def test_different_seed_rejects(self, config7):
        a = CryptoSuite(config7, seed=7)
        b = CryptoSuite(config7, seed=8)
        cert = make_cert(a, "l", 3, "payload", range(3))
        assert not b.verify_certificate(cert, "l", 3)


class TestCertificates:
    def test_roundtrip(self, config7, suite7):
        cert = make_cert(suite7, "commit", config7.commit_quorum, ("v", 1),
                         range(config7.commit_quorum))
        assert suite7.verify_certificate(cert, "commit", config7.commit_quorum)
        assert payload_words(cert) == 1
        assert cert.signatures() == config7.commit_quorum

    def test_strict_verification_pins_quorum_size(self, suite7):
        """A certificate from a k=1 scheme must not pass as a k=4 one —
        the downgrade-forgery guard."""
        low = make_cert(suite7, "commit", 1, "v", [0])
        assert suite7.verify_certificate(low, "commit", 1)  # valid under its own scheme
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
        assert not suite7.verify_certificate(fake, "l", 3)

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
        assert suite7.verify_certificate(cert, "l", 3)



class TestOneWordCertificates:
    """A certificate is what the paper counts as one word: a scheme id, a
    digest, a value and the quorum ``k``, all O(1) bytes whatever ``n``
    is, checked only against the scheme its verifier expects."""

    DOCTORED = (frozenset(range(1000)), 100_000, 1, 0, -1, 3.5, None, "x", ())

    def test_no_doctored_signature_field_moves_the_bill(self, config7, suite7):
        """Replace any one field of a valid signature: the certificate no
        longer verifies, or it still bills exactly the scheme's ``k``."""
        k = config7.commit_quorum
        cert = make_cert(suite7, "commit", k, ("v", 1), range(k))
        for field in fields(cert.signature):
            honest = getattr(cert.signature, field.name)
            step = {int: 1, str: "x"}.get(type(honest))
            near = (honest,) if step is None else (honest, honest + step)
            for value in self.DOCTORED + near:
                doctored = replace(
                    cert, signature=replace(cert.signature, **{field.name: value})
                )
                if suite7.verify_certificate(doctored, "commit", k):
                    assert payload_signatures(doctored) == k, (field.name, value)

    def test_any_quorum_of_signers_makes_one_certificate(self, config7, suite7):
        """The value is ``s * H(m)`` whichever ``k`` shares combine, and no
        field records who signed, so a receiver (and the model checker's
        state digest) cannot tell the two apart."""
        k = config7.commit_quorum
        low = make_cert(suite7, "commit", k, ("v", 1), range(k))
        n = config7.n
        high = make_cert(suite7, "commit", k, ("v", 1), range(n - k, n))
        assert low == high
        assert hash(low) == hash(high)
        assert repr(low) == repr(high)

    def test_pickled_size_does_not_grow_with_n(self):
        """A commit certificate and a committee partial pickle to the same
        size at n = 11 and n = 401, within a few bytes (the quorum and the
        pids are ints of a different width)."""

        def sizes(n):
            config = SystemConfig.with_optimal_resilience(n)
            suite = CryptoSuite(config, seed=5)
            k = config.commit_quorum
            statement = ("commit", "v", 1)
            partials = [
                suite.partial_for_certificate(pid, "wba-commit:wba", k, statement)
                for pid in range(k)
            ]
            cert = suite.combine_certificate("wba-commit:wba", k, statement, partials)
            _, committee = suite.committee(range(n // 2))
            partial = suite.partial_for_certificate(
                n // 2 - 1, "gc", n // 4, "statement", committee
            )
            return len(pickle.dumps(cert)), len(pickle.dumps(partial))

        for small, large in zip(sizes(11), sizes(401)):
            assert abs(large - small) <= 4, (small, large)

    @pytest.mark.parametrize("value", [100_000, frozenset(range(100_000))])
    def test_a_doctored_certificate_is_never_billed_by_a_correct_relay(self, value):
        """A Byzantine weak-BA leader sends each certificate it completes
        with one signature field doctored.  No correct payload holds more
        than two certificates and one share, so no correct copy carries
        more than ``2n + 1`` signatures."""
        config = SystemConfig.with_optimal_resilience(7)
        validity = ExternalValidity(lambda v: isinstance(v, str))
        for field in fields(ThresholdSignature):
            leader = _DoctoringLeader(
                ("v",), Reach.FINALIZE, frozenset({2, 3}), field=field.name,
                doctored=value,
            )
            simulation = Simulation(config, seed=3)
            simulation.add_byzantine(1, leader)
            for pid in config.processes:
                if pid != 1:
                    simulation.add_process(
                        pid,
                        lambda ctx, pid=pid: weak_ba_protocol(
                            ctx, f"own-{pid}", validity
                        ),
                    )
            result = simulation.run()
            assert leader.doctored_sent, field.name
            assert len(set(result.decisions.values())) == 1
            bills = [b for b in result.ledger.bills if b.sender_correct]
            assert max(b.signatures for b in bills) <= 2 * config.n + 1, field.name


@dataclass
class _DoctoringLeader(WeakBaLeader):
    """:class:`WeakBaLeader` that replaces ``field`` of every certificate
    signature it sends with ``doctored``."""

    field: str = "k"
    doctored: object = None
    doctored_sent: int = 0

    def _message(self, api, offset, phase, value):
        message = super()._message(api, offset, phase, value)
        proof = getattr(message, "proof", None)
        if proof is None:
            return message
        self.doctored_sent += 1
        signature = replace(proof.signature, **{self.field: self.doctored})
        return replace(message, proof=replace(proof, signature=signature))


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
        assert suite7.verify_certificate(collector.certificate(), "l", 3)

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
