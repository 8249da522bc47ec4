"""Exception hierarchy for the ``repro`` library.

All exceptions raised by library code derive from :class:`ReproError` so
that applications can catch library failures with a single handler while
still letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class ConfigurationError(ReproError):
    """A :class:`~repro.config.SystemConfig` (or derived parameter) is invalid."""


class CryptoError(ReproError):
    """Base class for failures in the cryptographic substrate."""


class UnknownSignerError(CryptoError):
    """A signature references a process id that the PKI has never registered."""


class ThresholdError(CryptoError):
    """A threshold-scheme operation was used incorrectly."""


class InsufficientSharesError(ThresholdError):
    """Fewer than ``k`` distinct partial signatures were supplied to combine."""


class DuplicateShareError(ThresholdError):
    """The same signer contributed more than one share to a combine call."""


class InvalidCertificateError(CryptoError):
    """A quorum certificate failed verification."""


class WordAccountingError(ReproError):
    """A payload's word/signature accounting method returned an
    impossible value (e.g. ``words() < 1``: every message carries at
    least one word in the paper's model, Section 2)."""


class RuntimeSimulationError(ReproError):
    """Base class for errors in the synchronous runtime."""


class SchedulerError(RuntimeSimulationError):
    """The simulator itself was driven incorrectly (e.g. run twice)."""


class JoinError(RuntimeSimulationError):
    """:func:`~repro.runtime.concurrency.join` was handed branch sessions
    that repeat, nest inside one another or are not strings, so some
    traffic would have no single owning branch."""


class ModelCheckError(ReproError):
    """The model checker was driven incorrectly (invalid decision space,
    out-of-range scripted decision, replay divergence)."""


class RecoveryError(ReproError):
    """Crash recovery could not reconstruct a process's state.

    Raised when a write-ahead log is damaged beyond its torn tail (CRC
    mismatch on a complete frame, impossible frame length), when replay
    diverges from the logged send highwater marks (the recovered state
    machine is not the one that crashed), or when a WAL lacks the
    metadata needed to rebuild its protocol instance."""


class AgreementViolation(ReproError):
    """Two correct processes decided different values (test/verifier use)."""


class TerminationViolation(ReproError):
    """A correct process failed to decide within the allotted horizon."""
