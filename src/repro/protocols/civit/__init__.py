"""The Civit et al. protocol stack (arXiv:2308.03524).

Its strong BA is certification views over the same Algorithm-3 weak-BA
core the cohen stack uses (:mod:`repro.core.weak_ba`); the backends
differ only in the *strong* layer.  Its table rows and its ``BACKENDS``
row live in :mod:`repro.protocols.table`.
"""

from __future__ import annotations

from repro.protocols.civit.core import (
    BINARY_VALUES,
    RESOLUTION_VALUE,
    CertifiedValidity,
    CertifiedValue,
    civit_adaptive_strong_ba_protocol,
    civit_ba_protocol,
    civit_strong_ba_protocol,
)

__all__ = [
    "BINARY_VALUES",
    "RESOLUTION_VALUE",
    "CertifiedValidity",
    "CertifiedValue",
    "civit_adaptive_strong_ba_protocol",
    "civit_ba_protocol",
    "civit_strong_ba_protocol",
]
