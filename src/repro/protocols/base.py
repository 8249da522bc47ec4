"""The shared ``Protocol`` interface: backends as first-class objects.

A :class:`Backend` bundles one paper's protocol stack — weak BA,
strong BA, the adaptive strong-BA extension — behind a uniform surface
so every consumer in the repo (the tick simulator drivers, the asyncio
and TCP runtimes, the model-checker scenarios, benchmarks, and the
differential conformance suite) dispatches **by backend name** instead
of importing protocol modules directly.

Two kinds of members live on a backend:

* **Drivers and factories** — ``run_*`` entry points with the repo's
  standard signature ``(config, inputs, *, seed, byzantine, params)``
  and ``*_protocol`` generator factories for runtimes that manage their
  own event loop (asyncio, TCP, MC scenario builds).
* **Envelopes and capabilities** — the facts the shared, backend-
  parametrized tests assert: word-complexity budgets, failure-free tick
  bounds, and behavioral flags where the papers genuinely differ (does
  one silent process force the quadratic fallback?).  Keeping these on
  the backend is what lets one test body serve every stack with zero
  copy-paste.

Registration is explicit: each backend module builds its ``Backend``
and calls :func:`register_backend`; ``repro.protocols`` imports the
known backend modules so ``get_backend`` works after a single
``import repro.protocols``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.config import SystemConfig
from repro.errors import ConfigurationError

ScenarioFactory = Callable[..., Any]
"""A :class:`repro.mc.scenario.Scenario` factory (JSON-serializable
keyword params only)."""


@dataclass(frozen=True)
class Backend:
    """One protocol stack behind the shared Protocol API."""

    name: str
    """Registry key (``"cohen"``, ``"civit"``)."""
    title: str
    paper: str
    """Citation of the source paper this stack reproduces."""

    # -- drivers: standard ``(config, inputs, *, ...)`` entry points ----
    run_weak_ba: Callable
    run_strong_ba: Callable
    run_adaptive_strong_ba: Callable

    # -- generator factories for runtimes that own the event loop ------
    weak_ba_protocol: Callable
    strong_ba_protocol: Callable
    adaptive_strong_ba_protocol: Callable

    # -- model checking: scenario factories this backend contributes ---
    mc_scenarios: Mapping[str, ScenarioFactory] = field(default_factory=dict)
    mc_strong_scenario: str | None = None
    """Registry name of this backend's strong-BA mutant scenario."""

    # -- capabilities / envelopes consumed by the shared test bodies ---
    silent_leader_forces_fallback: bool = True
    """Does silencing one coordinator push the strong BA into its
    quadratic fallback?  True for Algorithm 5's fixed leader; False for
    a stack with rotating coordinators and an adaptive core."""
    strong_ba_degrades_quadratically: bool = True
    """Does a single silent process blow the strong-BA word bill up to
    the quadratic regime?  The headline differential between the two
    stacks — see ``benchmarks/bench_backend_adaptivity.py``."""
    weak_ba_shares_core_with: str | None = None
    """Name of the backend whose adaptive weak-BA core this stack
    reuses verbatim (``None`` = its own implementation)."""
    asba_non_silent_event: str = "asba_phase_non_silent"
    """Trace event the certification layer emits for a non-silent
    certification phase/view (distinct from the inner core's
    ``phase_non_silent`` so the adaptive-silence checker stays scoped)."""
    asba_certified_event: str = "asba_certified"
    """Trace event a process emits on adopting an input certificate."""

    strong_ba_tick_bound: Callable[[SystemConfig], int] | None = None
    """Upper bound on failure-free strong-BA ticks for ``config``."""
    strong_ba_word_budget: Callable[[SystemConfig, int], float] | None = None
    """``budget(config, f)`` — the stack's word-complexity envelope for
    a strong-BA run with ``f`` silent faults (conformance sweeps assert
    ``correct_words <= budget``)."""

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise ConfigurationError(
                f"backend name must be a Python identifier, got {self.name!r}"
            )

    def describe(self) -> str:
        return f"{self.name}: {self.title} ({self.paper})"


_BACKENDS: dict[str, Backend] = {}


def register_backend(backend: Backend) -> Backend:
    """Register a backend under its name; re-registration must be
    idempotent (same object) — two different stacks under one name is a
    wiring bug, not a feature."""
    existing = _BACKENDS.get(backend.name)
    if existing is not None and existing is not backend:
        raise ConfigurationError(
            f"backend {backend.name!r} is already registered"
        )
    _BACKENDS[backend.name] = backend
    return backend


def backend_names() -> tuple[str, ...]:
    """Registered backend names, deterministically sorted."""
    return tuple(sorted(_BACKENDS))


def get_backend(name: str) -> Backend:
    backend = _BACKENDS.get(name)
    if backend is None:
        raise ConfigurationError(
            f"unknown backend {name!r} (known: {list(backend_names())})"
        )
    return backend


def all_backends() -> tuple[Backend, ...]:
    return tuple(_BACKENDS[name] for name in backend_names())
