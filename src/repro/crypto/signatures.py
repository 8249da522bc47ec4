"""Signature and equivocation-proof value objects.

A :class:`Signature` is the object protocols attach to messages; it names
its signer and carries an HMAC tag computed by the trusted registry.  The
paper's word model (Section 2) counts a constant number of signatures as
one word, so a single signature contributes ``1`` to word counts (see
:mod:`repro.metrics.words`).

An :class:`EquivocationProof` packages two signatures by the same signer
over *conflicting* payloads for the same slot — transferable evidence of
Byzantine behavior, used by the synchronous fallback protocol's
equivocation-detection safety argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.config import ProcessId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.crypto.keys import KeyRegistry


@dataclass(frozen=True)
class Signature:
    """An individual signature: ``<m>_p`` in the paper's notation."""

    signer: ProcessId
    tag: bytes

    def signatures(self) -> int:
        return 1


@dataclass(frozen=True)
class SignedValue:
    """A payload together with its producing signature: ``<v>_p``.

    ``payload`` must be canonically encodable.  Verification is
    :meth:`verify`, given the deployment's registry.
    """

    payload: object
    signature: Signature

    @property
    def signer(self) -> ProcessId:
        return self.signature.signer

    def verify(self, registry: "KeyRegistry") -> bool:
        return registry.verify(self.signature, self.payload)

    def signatures(self) -> int:
        return 1


@dataclass(frozen=True)
class EquivocationProof:
    """Proof that one process signed two conflicting payloads for one slot.

    ``slot`` identifies the context (e.g. ``("propose", view)``) in which
    at most one signed payload is legitimate.
    """

    slot: object
    first: SignedValue
    second: SignedValue

    @property
    def culprit(self) -> ProcessId:
        return self.first.signer

    def verify(self, registry: "KeyRegistry") -> bool:
        """The proof is valid iff both signatures verify, they share a
        signer, and the payloads differ."""
        return (
            self.first.signer == self.second.signer
            and self.first.payload != self.second.payload
            and self.first.verify(registry)
            and self.second.verify(registry)
        )

    def signatures(self) -> int:
        return self.first.signatures() + self.second.signatures()


def sign_value(signer, payload: object) -> SignedValue:
    """Convenience: build a :class:`SignedValue` with ``signer``'s signature."""
    return SignedValue(payload=payload, signature=signer.sign(payload))
