"""A ``(k, n)``-threshold signature scheme via Shamir secret sharing.

The paper (Section 2) assumes an *ideal* threshold scheme: ``k`` unique
signatures on the same message batch into one threshold signature the
size of an individual signature.  We implement a real linear scheme:

* A trusted dealer (the scheme object, playing the role of the paper's
  trusted setup) samples a secret ``s`` and a degree-``k-1`` polynomial
  ``P`` with ``P(0) = s`` over GF(p); process ``i`` holds the share
  ``s_i = P(i + 1)``, evaluated the first time it is used.
* A partial signature on message ``m`` is ``sigma_i = s_i * H(m) mod p``.
* Any ``k`` partials from distinct signers combine by Lagrange
  interpolation at zero into ``sigma = s * H(m) mod p`` — one field
  element regardless of ``k``, i.e. **one word**.
* Verification checks ``sigma == s * H(m)``; the dealer retains ``s``
  as the verification oracle (standing in for the pairing check of BLS
  threshold signatures).

Unforgeability is information-theoretic below the threshold: an
adversary holding fewer than ``k`` shares learns nothing about ``s``, so
it cannot produce ``s * H(m)`` except by guessing a 256-bit value.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.config import ProcessId
from repro.crypto import field
from repro.crypto.canonical import encode
from repro.errors import (
    DuplicateShareError,
    InsufficientSharesError,
    ThresholdError,
    UnknownSignerError,
)


def message_digest(payload: object) -> int:
    """Hash a canonically encodable payload into a field element ``H(m)``.

    The digest is forced non-zero so partial signatures never degenerate
    (``sigma_i = 0`` would leak nothing but also verify for any secret).
    """
    return digest_from_bytes(encode(payload))


def digest_from_bytes(encoded: bytes) -> int:
    """The digest of an already canonically encoded message."""
    raw = hashlib.sha256(b"tsig|" + encoded).digest()
    return int.from_bytes(raw, "big") % field.PRIME or 1


@dataclass(frozen=True)
class PartialSignature:
    """One process's share-signature on a message."""

    scheme_id: str
    signer: ProcessId
    digest: int
    value: int

    def signatures(self) -> int:
        """A share is one individual signature."""
        return 1


@dataclass(frozen=True)
class ThresholdSignature:
    """A combined ``(k, n)``-threshold signature: one word, any ``k``.

    Every field is O(1): the value ``s * H(m)`` is the same whichever
    ``k`` shares were combined, so nothing records who contributed.
    ``k`` is the scheme's quorum; verification rejects any other.
    """

    scheme_id: str
    digest: int
    value: int
    k: int

    def signatures(self) -> int:
        """Lower-bound accounting: the ``k`` batched individual signatures."""
        return self.k


class ThresholdScheme:
    """A dealt ``(k, n)`` scheme; also the verification oracle.

    Parameters
    ----------
    scheme_id:
        Distinguishes schemes (e.g. ``"idk:t+1"`` vs ``"commit"``) so
        partials from different schemes can never be mixed.
    k:
        Combination threshold, ``1 <= k <= n``.
    n:
        Number of share-holders (process ids ``0 .. n-1``).
    seed:
        Deterministic dealer randomness.
    """

    def __init__(
        self,
        scheme_id: str,
        k: int,
        n: int,
        seed: bytes = b"",
        members: frozenset[ProcessId] | None = None,
    ) -> None:
        """``members`` restricts share dealing to a committee: only those
        processes receive shares, so a ``k``-quorum provably comes from
        the committee.  ``None`` deals to all ``n`` processes.
        """
        holders = sorted(members) if members is not None else list(range(n))
        if members is not None and any(not 0 <= pid < n for pid in holders):
            raise ThresholdError(f"members {holders} outside process range 0..{n - 1}")
        if not 1 <= k <= len(holders):
            raise ThresholdError(
                f"need 1 <= k <= |holders|, got k={k}, holders={len(holders)}"
            )
        self._scheme_id = scheme_id
        self._k = k
        self._n = n
        self._members = frozenset(holders)
        material = hashlib.sha256(
            b"dealer|" + seed + scheme_id.encode() + f"|{k}|{n}".encode()
        ).digest()
        coefficients = []
        for i in range(k):
            raw = hashlib.sha256(material + i.to_bytes(4, "big")).digest()
            coefficients.append(int.from_bytes(raw, "big") % field.PRIME)
        if coefficients[0] == 0:
            coefficients[0] = 1
        self._polynomial = field.Polynomial(tuple(coefficients))
        self._secret = self._polynomial.evaluate(0)
        self._shares: dict[ProcessId, int] = {}
        """Member -> ``P(pid + 1)``, evaluated on first use: a decision
        signs with only some of the shares (docs/performance.md)."""
        self._combine_cache: dict[tuple[tuple[ProcessId, int], ...], int] = {}
        """``(signer, value)`` pairs -> interpolated value; cleared
        wholesale at ``_CACHE_CAP``."""

    _CACHE_CAP = 1 << 14

    @property
    def scheme_id(self) -> str:
        return self._scheme_id

    @property
    def k(self) -> int:
        return self._k

    @property
    def n(self) -> int:
        return self._n

    @property
    def members(self) -> frozenset[ProcessId]:
        """The share-holders (a committee, or all ``n`` processes)."""
        return self._members

    def _share_of(self, pid: ProcessId) -> int:
        share = self._shares.get(pid)
        if share is None:
            if pid not in self._members:
                raise UnknownSignerError(
                    f"process {pid} holds no share in scheme {self._scheme_id!r}"
                )
            # int(): the member test is by equality, so a hostile partial
            # may name member 1 as 1.0; evaluating at a float would file
            # a wrong share under the key member 1 then reads.
            share = self._shares[pid] = self._polynomial.evaluate(int(pid) + 1)
        return share

    # ------------------------------------------------------------------
    # Signing
    # ------------------------------------------------------------------

    def partial_sign(self, pid: ProcessId, payload: object) -> PartialSignature:
        """Produce ``pid``'s partial signature on ``payload``."""
        return self.partial_sign_digest(pid, message_digest(payload))

    def partial_sign_digest(
        self, pid: ProcessId, digest: int
    ) -> PartialSignature:
        """Sign a precomputed message digest (the batch/collector path:
        the digest is hashed once per payload, not once per signer)."""
        return PartialSignature(
            scheme_id=self._scheme_id,
            signer=pid,
            digest=digest,
            value=field.mul(self._share_of(pid), digest),
        )

    def verify_partial(self, partial: PartialSignature, payload: object) -> bool:
        """Check a single partial against the dealer's share table."""
        return self.verify_partial_digest(partial, message_digest(payload))

    def verify_partial_digest(
        self, partial: PartialSignature, digest: int
    ) -> bool:
        """Check one partial against an expected (precomputed) digest."""
        if partial.scheme_id != self._scheme_id:
            return False
        if partial.digest != digest:
            return False
        try:
            share = self._share_of(partial.signer)
        except UnknownSignerError:
            return False
        return partial.value == field.mul(share, digest)

    def verify_partials(
        self, partials: Sequence[PartialSignature], payload: object
    ) -> list[bool]:
        """Batch verification: per-partial verdicts with one digest.

        The message is hashed once; a Fiat–Shamir random linear
        combination then checks the whole batch with a single share-sum
        equation — ``sum(r_i * sigma_i) == (sum(r_i * s_i)) * H(m)`` —
        where the ``r_i`` are derived by hashing the batch itself, so an
        adversary cannot craft offsetting errors against coefficients
        chosen after its values are fixed.  Only when the combined check
        fails (at least one bad partial) does it fall back to
        per-partial verification to locate the culprits.
        """
        digest = message_digest(payload)
        eligible = all(
            p.scheme_id == self._scheme_id
            and p.digest == digest
            and p.signer in self._members
            for p in partials
        )
        if eligible and len(partials) > 1:
            seed = hashlib.sha256(
                b"batch|"
                + self._scheme_id.encode()
                + digest.to_bytes(32, "big")
                + b"|".join(p.value.to_bytes(32, "big") for p in partials)
            ).digest()
            lhs = 0
            share_sum = 0
            for i, partial in enumerate(partials):
                r = int.from_bytes(
                    hashlib.sha256(seed + i.to_bytes(4, "big")).digest(), "big"
                ) % field.PRIME
                lhs = field.add(lhs, field.mul(r, partial.value))
                share_sum = field.add(
                    share_sum, field.mul(r, self._share_of(partial.signer))
                )
            if lhs == field.mul(share_sum, digest):
                return [True] * len(partials)
        return [self.verify_partial_digest(p, digest) for p in partials]

    def combine(self, partials: Iterable[PartialSignature]) -> ThresholdSignature:
        """Combine ``k`` (or more) distinct partials into one signature.

        Raises
        ------
        InsufficientSharesError
            Fewer than ``k`` distinct signers contributed.
        DuplicateShareError
            The same signer appears twice.
        ThresholdError
            Partials disagree on scheme or message.
        """
        chosen = list(partials)
        if not chosen:
            raise InsufficientSharesError("no partial signatures supplied")
        signers = [p.signer for p in chosen]
        if len(set(signers)) != len(signers):
            raise DuplicateShareError(f"duplicate signers in {sorted(signers)}")
        if any(p.scheme_id != self._scheme_id for p in chosen):
            raise ThresholdError("partials from a different scheme")
        digest = chosen[0].digest
        if any(p.digest != digest for p in chosen):
            raise ThresholdError("partials sign different messages")
        if len(chosen) < self._k:
            raise InsufficientSharesError(
                f"scheme {self._scheme_id!r} needs {self._k} shares, "
                f"got {len(chosen)}"
            )
        subset = chosen[: self._k]
        # The key carries the partial *values*, not just the signer set:
        # combining garbage values must miss the memo and produce the
        # same non-verifying signature interpolation would.
        key = tuple((p.signer, p.value) for p in subset)
        value = self._combine_cache.get(key)
        if value is None:
            if len(self._combine_cache) >= self._CACHE_CAP:
                self._combine_cache.clear()
            value = self._combine_cache[key] = field.interpolate_at_zero(
                (p.signer + 1, p.value) for p in subset
            )
        return ThresholdSignature(
            scheme_id=self._scheme_id, digest=digest, value=value, k=self._k
        )

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------

    def verify(self, signature: ThresholdSignature, payload: object) -> bool:
        """Check a combined signature against ``payload``.

        This is the trusted verification oracle standing in for the
        public pairing check of a production scheme.
        """
        if signature.scheme_id != self._scheme_id or signature.k != self._k:
            return False
        digest = message_digest(payload)
        if signature.digest != digest:
            return False
        return self.verify_value_digest(signature.value, digest)

    def verify_value_digest(self, value: int, digest: int) -> bool:
        """Oracle check of a combined value against a precomputed digest."""
        return value == field.mul(self._secret, digest)
