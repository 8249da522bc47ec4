"""Cryptographic substrate: PKI signatures and threshold signatures.

The paper assumes a trusted PKI and an *ideal* ``(k, n)``-threshold
signature scheme (Section 2).  This package provides both:

* :mod:`repro.crypto.keys` / :mod:`repro.crypto.signatures` — per-process
  unforgeable signatures backed by an HMAC key registry (the trusted PKI);
* :mod:`repro.crypto.threshold` — a real Shamir-secret-sharing threshold
  scheme over a 256-bit prime field, with trusted-dealer verification
  (information-theoretically unforgeable below the threshold);
* :mod:`repro.crypto.certificates` — typed quorum certificates the
  protocols exchange, each counting as one word.
"""

from repro.crypto.canonical import encode
from repro.crypto.certificates import (
    CertificateCollector,
    CryptoSuite,
    QuorumCertificate,
    collect_by_value,
)
from repro.crypto.keys import KeyRegistry, Signer
from repro.crypto.signatures import (
    EquivocationProof,
    Signature,
    SignedValue,
    sign_value,
)
from repro.crypto.threshold import (
    PartialSignature,
    ThresholdScheme,
    ThresholdSignature,
)

__all__ = [
    "encode",
    "KeyRegistry",
    "Signer",
    "Signature",
    "SignedValue",
    "sign_value",
    "EquivocationProof",
    "ThresholdScheme",
    "PartialSignature",
    "ThresholdSignature",
    "CryptoSuite",
    "QuorumCertificate",
    "CertificateCollector",
    "collect_by_value",
]
