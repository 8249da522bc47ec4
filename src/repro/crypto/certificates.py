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
evicted first once it holds ``_SCHEME_CACHE_CAP``: one seed needs a
handful of entries, and a long-lived process running many seeds must not
keep every scheme it ever dealt (~46 KB each at ``n = 101``).

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
    size that produced it.
    """

    label: str
    payload: object
    signature: ThresholdSignature

    @property
    def signers(self) -> frozenset[ProcessId]:
        return self.signature.signers

    def signatures(self) -> int:
        """Individual signatures batched inside (lower-bound accounting)."""
        return len(self.signature.signers)

    def verify(self, suite: "CryptoSuite") -> bool:
        """Whether the signature verifies under the scheme its id names,
        whatever its quorum; ``False``, never an exception, on malformed
        fields."""
        return suite._verify_bound(None, self, self.label)


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
        never builds the string id (a frozenset caches its own hash)."""
        self._by_id: dict[str, ThresholdScheme] = {}
        """Scheme id -> dealt scheme, for ids carried inside signatures."""
        # Combined-certificate verdicts keyed by canonical message bytes
        # (plus scheme id and the signature fields).
        self._cert_cache: dict[tuple[str, bytes, int, int], bool] = {}
        # Statement identity -> (payload, canonical bytes, digest); see
        # _bound.  The stored strong reference keeps every id in a key
        # from being reused while its entry lives.
        self._bind_memo: dict[tuple, tuple[object, bytes, int]] = {}

    # ------------------------------------------------------------------
    # Scheme management
    # ------------------------------------------------------------------

    @staticmethod
    def _scheme_id(
        label: str, k: int, members: frozenset[ProcessId] | None
    ) -> str:
        if members is None:
            return f"{label}|k={k}"
        return f"{label}|k={k}|m={','.join(map(str, sorted(members)))}"

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
        existing = self._by_id.get(scheme_id)
        if existing is None:
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
            self._by_id[scheme_id] = existing
        self._schemes[key] = existing
        return existing

    def scheme_by_id(self, scheme_id: str) -> ThresholdScheme | None:
        """Resolve a scheme id carried inside a signature.

        The parameters are parsed back out so verification works even if
        this suite instance has not dealt the scheme yet (schemes are
        dealt deterministically from the master seed).
        """
        existing = self._by_id.get(scheme_id)
        if existing is not None:
            return existing
        members: frozenset[ProcessId] | None = None
        body = scheme_id
        if "|m=" in body:
            body, _, members_part = body.rpartition("|m=")
            try:
                members = frozenset(int(p) for p in members_part.split(","))
            except ValueError:
                return None
        label, _, k_part = body.rpartition("|k=")
        # isdigit() alone admits "²", which int() rejects.
        if not label or not (k_part.isascii() and k_part.isdigit()):
            return None
        k = int(k_part)
        holder_count = len(members) if members is not None else self.config.n
        if not 1 <= k <= holder_count:
            return None
        if members is not None and any(
            pid not in self.config.processes for pid in members
        ):
            return None
        return self.scheme(label, k, members)

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

    def _verify_bound(
        self,
        scheme: ThresholdScheme | None,
        certificate: QuorumCertificate,
        label: str,
    ) -> bool:
        """Verify ``certificate`` as a ``label`` statement under
        ``scheme`` (``None``: the scheme its signature names), memoized
        by the statement's canonical bytes.

        The key carries the scheme id and both signature fields, so a
        doctored signature can never hit a stale ``True``.  This is the
        one place a malformed certificate is rejected: a field of the
        wrong type or shape, an unknown scheme id, an unhashable payload
        or one the canonical encoder refuses yields ``False``, never an
        exception.
        """
        try:
            signature = certificate.signature
            if scheme is None:
                scheme = self.scheme_by_id(signature.scheme_id)
            if (
                scheme is None
                or certificate.label != label
                or signature.scheme_id != scheme.scheme_id
            ):
                return False
            hash(certificate.payload)  # a list encodes like its tuple twin
            encoded, digest = self._bound(label, certificate.payload)
            key = (scheme.scheme_id, encoded, signature.digest, signature.value)
            verdict = self._cert_cache.get(key)
            if verdict is None:
                verdict = signature.digest == digest and scheme.verify_value_digest(
                    signature.value, digest
                )
                if len(self._cert_cache) >= self._CERT_CACHE_CAP:
                    self._cert_cache.clear()
                self._cert_cache[key] = verdict
            return verdict
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

        Protocols must use this (not bare :meth:`QuorumCertificate.verify`)
        when a specific quorum size is semantically required — otherwise
        an adversary could present a certificate from a lower-threshold
        scheme of the same label.

        Returns ``False`` and never raises on anything malformed: a
        non-certificate, another label or scheme, a garbled signature, an
        unhashable payload (a list twin of a signed tuple) or one the
        canonical encoder rejects.  A caller therefore needs no guard of
        its own — it calls this first, then reads ``certificate.payload``
        (hashable, so fit for a set or a dict key) only once it returned
        ``True``.
        """
        return isinstance(certificate, QuorumCertificate) and self._verify_bound(
            self.scheme(label, k, members), certificate, label
        )

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

    def verify_partial(
        self,
        partial: PartialSignature,
        label: str,
        k: int,
        payload: object,
        members: frozenset[ProcessId] | None = None,
    ) -> bool:
        return self.scheme(label, k, members).verify_partial_digest(
            partial, self._bound_digest(label, payload)
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
                and self._scheme.verify_partial_digest(partial, self._digest)
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
