"""Protocol stacks behind one table.

:mod:`repro.protocols.table` holds the decision: ``PROTOCOLS`` maps a
name plus a WAL-serialisable meta to a process's generator, and
``BACKENDS`` names each paper's stack (cohen, civit) by its table rows
and what it promises.
"""

from __future__ import annotations

from repro.protocols.table import (
    BACKENDS,
    Backend,
    all_backends,
    backend_names,
    get_backend,
)

__all__ = [
    "BACKENDS",
    "Backend",
    "all_backends",
    "backend_names",
    "get_backend",
]
