"""Backend registry: every protocol stack behind one Protocol API.

``import repro.protocols`` is the single switch-on point — it imports
the known backend modules (each registers itself via
:func:`~repro.protocols.base.register_backend`).  ``repro.mc.scenario``
must stay importable without the backends, so it imports this package
*lazily* on a registry miss, which breaks the would-be cycle
``protocols -> mc.scenario -> protocols``.

Which protocols exist, and how a name plus a WAL-serialisable meta
becomes a process's generator, is :mod:`repro.protocols.table`.
"""

from __future__ import annotations

from repro.protocols.base import (
    Backend,
    all_backends,
    backend_names,
    get_backend,
    register_backend,
)
from repro.protocols.civit import CIVIT
from repro.protocols.cohen import COHEN

__all__ = [
    "Backend",
    "CIVIT",
    "COHEN",
    "all_backends",
    "backend_names",
    "get_backend",
    "register_backend",
]


def mc_scenarios() -> dict[str, object]:
    """Every backend-contributed scenario factory, keyed by registry
    name — what :func:`repro.mc.scenario.make_scenario` merges in on a
    lookup miss."""
    merged: dict[str, object] = {}
    for backend in all_backends():
        merged.update(backend.mc_scenarios)
    return merged

