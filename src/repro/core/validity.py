"""Validity predicates — the paper's *unique validity* machinery.

Definition 3 (weak BA) is parameterized by an arbitrary locally
computable predicate ``validate(v)``.  This module provides the
predicate interface plus the instances the paper discusses:

* :class:`BroadcastValidity` — the ``BB_valid`` predicate of Section 5:
  a value is valid iff it is **signed by the designated sender** or
  carries an **idk certificate signed by t+1 processes**;
* :class:`SignedInputsValidity` — Section 3's example: valid iff signed
  by ``t+1`` processes *stating it was their initial value* (this makes
  unique validity collapse to strong unanimity on the signed values);
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
from typing import Callable

from repro.config import ProcessId, SystemConfig
from repro.core.values import BOTTOM
from repro.crypto.certificates import CryptoSuite, QuorumCertificate
from repro.crypto.signatures import SignedValue

IDK_LABEL = "idk"
"""Certificate label for Algorithm 2's ``QC_idk`` (t+1 idk messages)."""

INPUT_LABEL = "my_input"
"""Certificate label for :class:`SignedInputsValidity` statements."""


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


class SignedInputsValidity(ValidityPredicate):
    """Valid iff ``t+1`` processes certified "this was my initial value".

    With this predicate, unique validity yields strong unanimity on the
    underlying values (Section 3): if all correct processes propose the
    same ``v``, no other value can gather ``t+1`` input statements.
    """

    def __init__(self, suite: CryptoSuite, config: SystemConfig) -> None:
        self._suite = suite
        self._config = config

    def validate(self, value: object) -> bool:
        if not isinstance(value, QuorumCertificate):
            return False
        if value.label != INPUT_LABEL:
            return False
        return self._suite.verify_certificate(
            value, INPUT_LABEL, self._config.small_quorum
        )


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
