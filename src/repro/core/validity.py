"""Validity predicates — the paper's *unique validity* machinery.

Definition 3 (weak BA) is parameterized by an arbitrary locally
computable predicate ``validate(v)``.  This module provides the
predicate interface plus the instances the paper discusses:

* :class:`BroadcastValidity` — the ``BB_valid`` predicate of Section 5:
  a value is valid iff it is **signed by the designated sender** or
  carries an **idk certificate signed by t+1 processes**;
* :class:`CertifiedValidity` — Section 3's example: a
  :class:`CertifiedValue` is valid iff ``t+1`` processes signed *that it
  was their initial value* (this makes unique validity collapse to
  strong unanimity on the signed values);
* :class:`ExternalValidity` — wraps any user-supplied callable, giving
  plain external validity [5].

Predicates must be safe to evaluate on arbitrary adversary-supplied
objects: they return ``False`` for garbage rather than raising.  The
crypto verifiers they call already do (``KeyRegistry.verify``,
``CryptoSuite.verify_certificate``), so only :class:`ExternalValidity`,
which runs a caller's predicate, needs a guard of its own.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable

from repro.config import ProcessId, SystemConfig
from repro.core.values import BOTTOM
from repro.crypto.certificates import CryptoSuite, QuorumCertificate
from repro.crypto.signatures import SignedValue

IDK_LABEL = "idk"
"""Certificate label for Algorithm 2's ``QC_idk`` (t+1 idk messages)."""


def input_label(session: str) -> str:
    """Certificate label of session ``session``'s input statements."""
    return f"input:{session}"


def input_statement(value: object) -> tuple:
    """What an input share signs: "``value`` was my initial value"."""
    return ("input", value)


class ValidityPredicate(ABC):
    """A locally computable ``validate(v) -> bool`` (Definition 3)."""

    @abstractmethod
    def validate(self, value: object) -> bool:
        """Whether ``value`` is valid.  Must not raise on garbage."""

    def __call__(self, value: object) -> bool:
        return self.validate(value)


class BroadcastValidity(ValidityPredicate):
    """``BB_valid`` (Section 5): sender-signed, or a t+1 idk certificate.

    *"BB_valid(v) = true if and only if v is signed by either the sender
    or by t + 1 processes."*  The only way t+1 processes sign in the BB
    protocol is the idk quorum certificate of Algorithm 2 line 26.
    """

    def __init__(
        self, suite: CryptoSuite, config: SystemConfig, sender: ProcessId
    ) -> None:
        self._suite = suite
        self._config = config
        self._sender = sender

    @property
    def sender(self) -> ProcessId:
        return self._sender

    def validate(self, value: object) -> bool:
        if isinstance(value, SignedValue):
            return value.verify(self._suite.registry) and value.signer == self._sender
        if isinstance(value, QuorumCertificate):
            return self._suite.verify_certificate(
                value, IDK_LABEL, self._config.small_quorum
            )
        return False


@dataclass(frozen=True)
class CertifiedValue:
    """A value together with its input certificate.

    Equality, hashing and the canonical signing encoding cover the
    *underlying value only*: the certificate rides along as a non-field
    attribute.  Two certificates for one value minted from different
    share subsets therefore collapse into one weak-BA value, so unique
    validity forces the unanimous value (no ``⊥`` by certificate
    multiplicity).  Correct processes never send one as a payload: it
    rides inside weak-BA messages, which bill one word whatever value
    they carry.
    """

    value: object

    def with_certificate(self, certificate: QuorumCertificate) -> "CertifiedValue":
        object.__setattr__(self, "_certificate", certificate)
        return self

    @property
    def certificate(self) -> QuorumCertificate | None:
        return getattr(self, "_certificate", None)

    def words(self) -> int:
        # One word for the value, one for the threshold certificate.
        return 2

    def __repr__(self) -> str:
        return f"Certified({self.value!r})"


class CertifiedValidity(ValidityPredicate):
    """Valid iff the attached certificate proves ``t+1`` processes —
    hence at least one correct one — claimed the wrapped value as their
    input in session ``session``."""

    def __init__(self, suite: CryptoSuite, config: SystemConfig, session: str):
        self._suite = suite
        self._quorum = config.small_quorum
        self._label = input_label(session)

    def validate(self, value: object) -> bool:
        if not isinstance(value, CertifiedValue):
            return False
        certificate = value.certificate
        return self._suite.verify_certificate(
            certificate, self._label, self._quorum
        ) and certificate.payload == input_statement(value.value)


class ExternalValidity(ValidityPredicate):
    """External validity [5]: any user-supplied local predicate."""

    def __init__(self, predicate: Callable[[object], bool]) -> None:
        self._predicate = predicate

    def validate(self, value: object) -> bool:
        try:
            return bool(self._predicate(value))
        except Exception:
            return False


class AlwaysValid(ValidityPredicate):
    """Trivial predicate (every value valid) — tests and examples."""

    def validate(self, value: object) -> bool:
        return value is not None and value != BOTTOM
