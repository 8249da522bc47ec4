"""Typed quorum certificates and the per-deployment crypto suite.

Protocols form certificates like ``QC_idk``, ``QC_commit(v)``,
``QC_finalized(v)``, ``QC_fallback`` — each a threshold signature on a
``(label, payload)`` pair.  The :class:`CryptoSuite` owns the PKI
registry and one :class:`~repro.crypto.threshold.ThresholdScheme` per
``(label, k)`` combination, dealt deterministically so every component
of a deployment agrees on the schemes.
"""

from __future__ import annotations

import hashlib
import operator
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.config import ProcessId, SystemConfig
from repro.crypto.canonical import encode
from repro.crypto.keys import KeyRegistry, Signer
from repro.crypto.threshold import (
    PartialSignature,
    ThresholdScheme,
    ThresholdSignature,
    digest_from_bytes,
)
from repro.errors import InvalidCertificateError, ThresholdError


def _bind(label: str, payload: object) -> tuple:
    """The value actually threshold-signed for a certificate."""
    return ("qc", label, payload)


_SCHEME_CACHE: dict[tuple[bytes, str], ThresholdScheme] = {}
_SCHEME_CACHE_CAP = 128
"""Dealt-scheme memo keyed by ``(master_seed, scheme_id)``, oldest entry
evicted first once it holds ``_SCHEME_CACHE_CAP``: a long-lived process
running many seeds must not keep every scheme it ever dealt (~46 KB each
at ``n = 101``).  An adaptive decision needs a handful of entries, but a
decision that runs the quadratic fallback deals one scheme per committee
statement: a weak-BA decision with ``f = t`` deals 44, 94 and 182 at
``n = 31``, 51 and 101, so at ``n = 101`` the memo turns over within a
single decision.  Within one suite, :attr:`CryptoSuite._schemes` still
holds every scheme the run dealt.

Dealing is deterministic in exactly those inputs, so two suites with the
same master seed (e.g. the thousands of single-run simulations a model-
checking sweep builds) share one dealt scheme object — and with it the
scheme's combine memo."""


_SCALAR_TYPES = frozenset({int, bool, str, bytes, type(None)})


def _immutable(value: object) -> bool:
    """Whether ``value``'s canonical encoding can never change: true for
    ints, strings, bytes, ``None``, frozen dataclasses (whose encoding
    :mod:`repro.crypto.canonical` already caches on the instance) and
    tuples of these; false for lists, mutable dataclasses and the rest.
    """
    kind = type(value)
    if kind is tuple:
        return all(map(_immutable, value))
    params = getattr(kind, "__dataclass_params__", None)
    return kind in _SCALAR_TYPES or (params is not None and params.frozen)


@dataclass(frozen=True)
class QuorumCertificate:
    """A threshold-signed statement: ``label`` holds for ``payload``.

    One word in the paper's complexity model regardless of the quorum
    size that produced it; checked only by
    :meth:`CryptoSuite.verify_certificate`, against the scheme the
    caller expects.
    """

    label: str
    payload: object
    signature: ThresholdSignature

    def signatures(self) -> int:
        """Individual signatures batched inside (lower-bound accounting):
        the quorum ``k``, which verification pins to the scheme's."""
        return self.signature.k


class CryptoSuite:
    """All cryptographic material for one deployment.

    Parameters
    ----------
    config:
        The deployment's :class:`~repro.config.SystemConfig` (supplies
        ``n`` for share dealing).
    seed:
        Deterministic master seed for the PKI and every dealt scheme.
    """

    _CERT_CACHE_CAP = 1 << 12

    def __init__(self, config: SystemConfig, seed: int = 0) -> None:
        self.config = config
        self._master_seed = hashlib.sha256(
            f"suite|{seed}|{config.n}|{config.t}".encode()
        ).digest()
        self.registry = KeyRegistry(config.n, master_seed=self._master_seed)
        self._schemes: dict[tuple, ThresholdScheme] = {}
        """``(label, k, members)`` -> dealt scheme: the hot lookup, which
        never builds the string id (a frozenset caches its own hash).
        Protocols take ``members`` from :meth:`committee`, so a lookup
        meets the very frozenset it was filed under and compares it by
        identity, not member by member."""
        self._committees: dict[
            tuple[ProcessId, ...], tuple[tuple[ProcessId, ...], frozenset[ProcessId]]
        ] = {}
        """Member tuple -> its canonical ``(tuple, frozenset)``."""
        # Statement identity -> (payload, canonical bytes, digest); see
        # _bound.  The stored strong reference keeps every id in a key
        # from being reused while its entry lives.
        self._bind_memo: dict[tuple, tuple[object, bytes, int]] = {}
        # Signed-object identity -> (object, verdict); see _remember.
        self._verdicts: dict[tuple, tuple[object, bool]] = {}

    # ------------------------------------------------------------------
    # Scheme management
    # ------------------------------------------------------------------

    @staticmethod
    def _scheme_id(
        label: str, k: int, members: frozenset[ProcessId] | None
    ) -> str:
        """``label|k=K``, plus for a committee a fixed-width digest of
        its sorted members: an id is O(1) bytes whatever the committee's
        size, and nothing parses it back."""
        if members is None:
            return f"{label}|k={k}"
        listing = ",".join(map(str, sorted(members))).encode()
        return f"{label}|k={k}|m={hashlib.sha256(listing).hexdigest()[:32]}"

    def scheme(
        self,
        label: str,
        k: int,
        members: frozenset[ProcessId] | None = None,
    ) -> ThresholdScheme:
        """Get (dealing on first use) the ``(k, n)`` scheme for ``label``.

        ``members`` restricts share-holders to a committee — used by the
        fallback's recursive committees, whose memberships are a
        deterministic function of ``n`` and therefore part of the
        trusted setup.
        """
        key = (label, k, members)
        existing = self._schemes.get(key)
        if existing is not None:
            return existing
        scheme_id = self._scheme_id(label, k, members)
        cache_key = (self._master_seed, scheme_id)
        existing = _SCHEME_CACHE.get(cache_key)
        if existing is None:
            existing = ThresholdScheme(
                scheme_id=scheme_id,
                k=k,
                n=self.config.n,
                seed=self._master_seed,
                members=members,
            )
            if len(_SCHEME_CACHE) >= _SCHEME_CACHE_CAP:
                del _SCHEME_CACHE[next(iter(_SCHEME_CACHE))]
            _SCHEME_CACHE[cache_key] = existing
        self._schemes[key] = existing
        return existing

    def committee(
        self, members: Iterable[ProcessId]
    ) -> tuple[tuple[ProcessId, ...], frozenset[ProcessId]]:
        """The canonical ``(tuple, frozenset)`` of the committee
        ``members``, one per committee per suite.

        Committees are trusted setup (:meth:`scheme`): a deterministic
        function of ``n`` and the fallback's recursion path.  Every
        process that asks for the same committee gets the same two
        objects, so each :meth:`scheme` lookup keyed by the frozenset
        hits by identity instead of comparing every member."""
        key = tuple(members)
        canonical = self._committees.get(key)
        if canonical is None:
            canonical = self._committees[key] = (key, frozenset(key))
        return canonical

    def signer(self, pid: ProcessId) -> Signer:
        """The individual-signature capability of process ``pid``."""
        return self.registry.signer_for(pid)

    # ------------------------------------------------------------------
    # Certificate construction / verification helpers
    # ------------------------------------------------------------------

    def _bound(self, label: str, payload: object) -> tuple[bytes, int]:
        """Canonical bytes and digest of the bound statement.

        Memoized by identity, because protocols re-verify the same
        statement objects (FALLBACK_STATEMENT, the phase value) many
        times per run.  A plain tuple is keyed by the identities of its
        elements instead of its own, because statements such as
        ``("commit", value, level)`` are rebuilt by every signer around
        the same objects.  An identity key is sound only if the objects
        it names cannot change, so only payloads that :func:`_immutable`
        accepts are stored; any other payload is encoded afresh.
        """
        memo = self._bind_memo
        if type(payload) is tuple:
            key: tuple = (label, tuple, *map(id, payload))
            hit = memo.get(key)
            if hit is not None and all(map(operator.is_, hit[0], payload)):
                return hit[1], hit[2]
        else:
            key = (label, id(payload))
            hit = memo.get(key)
            if hit is not None and hit[0] is payload:
                return hit[1], hit[2]
        encoded = encode(_bind(label, payload))
        digest = digest_from_bytes(encoded)
        if _immutable(payload):
            if len(memo) >= self._CERT_CACHE_CAP:
                memo.clear()
            memo[key] = (payload, encoded, digest)
        return encoded, digest

    def _bound_digest(self, label: str, payload: object) -> int:
        """Digest of the bound ``(label, payload)`` statement."""
        return self._bound(label, payload)[1]

    def _remember(self, key: tuple, signed: object, verdict: bool) -> None:
        """Memoize ``verdict`` for the signed object ``signed``.

        ``key`` is ``(id(signed), scheme, label or digest)``.  In the
        simulator every process shares one suite, and a multicast
        certificate or partial is one object read by every receiver, so
        each receiver after the first gets its verdict here.  The entry
        holds ``signed`` itself, so no other object can take its id
        while the entry lives.  An identity key is sound only for an
        object that cannot change, so callers store only exact
        :class:`PartialSignature` instances and exact
        :class:`QuorumCertificate` instances (with a
        :class:`ThresholdSignature`) whose payloads :func:`_immutable`
        accepts — the assumption :meth:`_bound` and the canonical
        encoding cache already make.  Cleared wholesale at
        ``_CERT_CACHE_CAP`` entries."""
        verdicts = self._verdicts
        if len(verdicts) >= self._CERT_CACHE_CAP:
            verdicts.clear()
        verdicts[key] = (signed, verdict)

    def _partial_verdict(
        self, partial: PartialSignature, scheme: ThresholdScheme, digest: int
    ) -> bool:
        """``scheme.verify_partial_digest(partial, digest)``, memoized
        per partial object (:meth:`_remember`).  Raises what the check
        raises on garbled fields; such a partial is never stored."""
        key = (id(partial), scheme, digest)
        hit = self._verdicts.get(key)
        if hit is not None:
            return hit[1]
        verdict = scheme.verify_partial_digest(partial, digest)
        if type(partial) is PartialSignature:
            self._remember(key, partial, verdict)
        return verdict

    def _verify_bound(
        self, scheme: ThresholdScheme, certificate: QuorumCertificate, label: str
    ) -> bool:
        """Verify ``certificate`` as a ``label`` statement under
        ``scheme``.  Not memoized here: :meth:`verify_certificate` keeps
        one verdict per certificate object, and a miss costs one modmul.

        This is the one place a malformed certificate is rejected: a
        field of the wrong type or shape, another scheme id or quorum,
        an unhashable payload or one the canonical encoder refuses
        yields ``False``, never an exception.
        """
        try:
            signature = certificate.signature
            if (
                certificate.label != label
                or signature.scheme_id != scheme.scheme_id
                or signature.k != scheme.k
            ):
                return False
            hash(certificate.payload)  # a list encodes like its tuple twin
            digest = self._bound_digest(label, certificate.payload)
            return signature.digest == digest and scheme.verify_value_digest(
                signature.value, digest
            )
        except Exception:
            return False

    def verify_certificate(
        self,
        certificate: QuorumCertificate,
        label: str,
        k: int,
        members: frozenset[ProcessId] | None = None,
    ) -> bool:
        """Strict verification: the certificate must carry ``label`` AND
        have been combined under the expected ``(k, n)`` scheme (with the
        expected committee, if any).

        This is the only way to verify a certificate: the caller names
        the scheme, so an adversary cannot present a certificate from a
        lower-threshold scheme of the same label, and a certificate that
        verifies bills exactly that scheme's ``k`` signatures.

        Returns ``False`` and never raises on anything malformed: a
        non-certificate, another label or scheme, a garbled signature, an
        unhashable payload (a list twin of a signed tuple) or one the
        canonical encoder rejects.  A caller therefore needs no guard of
        its own — it calls this first, then reads ``certificate.payload``
        (hashable, so fit for a set or a dict key) only once it returned
        ``True``.
        """
        if not isinstance(certificate, QuorumCertificate):
            return False
        scheme = self.scheme(label, k, members)
        # One verdict per certificate object (_remember): every receiver
        # of a multicast certificate still calls this, once.
        key = (id(certificate), scheme, label)
        hit = self._verdicts.get(key)
        if hit is not None:
            return hit[1]
        verdict = self._verify_bound(scheme, certificate, label)
        if (
            type(certificate) is QuorumCertificate
            and type(certificate.signature) is ThresholdSignature
            and _immutable(certificate.payload)
        ):
            self._remember(key, certificate, verdict)
        return verdict

    def partial_for_certificate(
        self,
        pid: ProcessId,
        label: str,
        k: int,
        payload: object,
        members: frozenset[ProcessId] | None = None,
    ) -> PartialSignature:
        """Process ``pid``'s share toward ``QC_label(payload)``."""
        return self.scheme(label, k, members).partial_sign_digest(
            pid, self._bound_digest(label, payload)
        )

    def combine_certificate(
        self,
        label: str,
        k: int,
        payload: object,
        partials: Iterable[PartialSignature],
        members: frozenset[ProcessId] | None = None,
    ) -> QuorumCertificate:
        """Batch partials into a certificate (Alg. 2 line 26 et al.)."""
        scheme = self.scheme(label, k, members)
        signature = scheme.combine(partials)
        certificate = QuorumCertificate(
            label=label, payload=payload, signature=signature
        )
        if not self._verify_bound(scheme, certificate, label):
            raise InvalidCertificateError(
                f"combined certificate for {label!r} does not verify; "
                "partials were not signatures on this payload"
            )
        return certificate


class CertificateCollector:
    """Leader-side accumulator of partial signatures for one certificate.

    Verifies each incoming partial, ignores duplicates and garbage, and
    reports when the quorum ``k`` is reached.
    """

    def __init__(
        self,
        suite: CryptoSuite,
        label: str,
        k: int,
        payload: object,
        members: frozenset[ProcessId] | None = None,
    ) -> None:
        self._suite = suite
        self._label = label
        self._k = k
        self._payload = payload
        self._members = members
        self._partials: dict[ProcessId, PartialSignature] = {}
        # The bound statement is fixed for the collector's lifetime, so
        # encode and digest it once; every add() verifies against it.
        self._scheme = suite.scheme(label, k, members)
        self._digest = suite._bound_digest(label, payload)

    @property
    def count(self) -> int:
        return len(self._partials)

    @property
    def complete(self) -> bool:
        return len(self._partials) >= self._k

    def add(self, partial: PartialSignature) -> bool:
        """Add a partial if valid; return :attr:`complete` afterwards.

        Anything else — a non-partial, a partial with garbled fields, a
        duplicate — is ignored, never an exception: callers feed wire
        input straight in."""
        try:
            if (
                isinstance(partial, PartialSignature)
                and partial.signer not in self._partials
                and self._suite._partial_verdict(partial, self._scheme, self._digest)
            ):
                self._partials[partial.signer] = partial
        except Exception:  # e.g. an unhashable signer
            pass
        return self.complete

    def certificate(self) -> QuorumCertificate:
        """Combine the collected partials; requires :attr:`complete`."""
        if not self.complete:
            raise ThresholdError(
                f"certificate {self._label!r} needs {self._k} partials, "
                f"have {len(self._partials)}"
            )
        return self._suite.combine_certificate(
            self._label,
            self._k,
            self._payload,
            self._partials.values(),
            self._members,
        )


def collect_by_value(
    suite: CryptoSuite,
    label: str,
    k: int,
    pairs: Iterable[tuple[object, object]],
    statement: Callable[[object], object],
    members: frozenset[ProcessId] | None = None,
    values: Iterable[object] | None = None,
) -> dict[object, CertificateCollector]:
    """Group ``(value, partial)`` pairs into one collector per value,
    each toward ``QC_label(statement(value))``, in first-seen order.

    ``values``, when given, is the closed domain: a collector is made for
    each of them up front, in that order, and any other value is
    dropped.  A value that cannot key a dict or whose statement the
    canonical encoder rejects is skipped, like a partial that does not
    verify — wire garbage never raises here.
    """
    by_value: dict[object, CertificateCollector] = {}
    if values is not None:
        for value in values:
            by_value[value] = CertificateCollector(
                suite, label, k, statement(value), members
            )
    for value, partial in pairs:
        try:
            collector = by_value.get(value)
            if collector is None:
                if values is not None:
                    continue
                collector = CertificateCollector(
                    suite, label, k, statement(value), members
                )
                by_value[value] = collector
        except Exception:  # unhashable, or not encodable
            continue
        collector.add(partial)
    return by_value


def clear_caches() -> None:
    """Drop the module-level dealt-scheme memo (tests, long-lived
    services).  Per-suite certificate caches die with their suites."""
    _SCHEME_CACHE.clear()
