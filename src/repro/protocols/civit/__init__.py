"""The Civit et al. backend (arXiv:2308.03524), wired into the shared
Protocol API.

``run_weak_ba`` / ``weak_ba_protocol`` deliberately reference the same
Algorithm-3 core as the cohen backend (``weak_ba_shares_core_with =
"cohen"``): both papers build their adaptive machinery on that weak-BA
substrate, and sharing it is a documented substrate reuse, not an
accident — the backends differ in the *strong* layer (certification
views + ⊥ resolution here vs. Algorithm 5's fixed-leader fast path).
"""

from __future__ import annotations

from repro.config import SystemConfig
from repro.core.weak_ba import run_weak_ba, weak_ba_protocol
from repro.protocols.base import Backend, register_backend
from repro.protocols.civit.core import (
    BINARY_VALUES,
    RESOLUTION_VALUE,
    CertifiedValidity,
    CertifiedValue,
    civit_adaptive_strong_ba_protocol,
    civit_ba_protocol,
    civit_strong_ba_protocol,
    run_civit_adaptive_strong_ba,
    run_civit_strong_ba,
)

__all__ = [
    "BINARY_VALUES",
    "RESOLUTION_VALUE",
    "CIVIT",
    "CertifiedValidity",
    "CertifiedValue",
    "civit_adaptive_strong_ba_protocol",
    "civit_ba_protocol",
    "civit_strong_ba_protocol",
    "run_civit_adaptive_strong_ba",
    "run_civit_strong_ba",
]


def _strong_ba_tick_bound(config: SystemConfig) -> int:
    # t+1 certification views (3 ticks each) + the full weak-BA round
    # structure (6 ticks per phase, n phases, help + grace epilogue).
    return 3 * (config.t + 1) + 6 * config.n + 15


def _strong_ba_word_budget(config: SystemConfig, f: int) -> float:
    n = config.n
    if f >= config.fallback_failure_threshold:
        # At or above (n-t-1)/2 silent faults the shared weak-BA core
        # legitimately runs its quadratic fallback.
        return 90.0 * n * n
    # Below the threshold the whole stack stays adaptive: one correct
    # certification view plus the weak BA's O(n(f+1)) bill.
    return 45.0 * n * (f + 1)


def _mc_scenarios():
    from repro.protocols.civit.scenario import civit_strong_ba_scenario

    return {"civit-strong-ba": civit_strong_ba_scenario}


CIVIT = register_backend(
    Backend(
        name="civit",
        title="Strong Byzantine Agreement with Adaptive Word Complexity",
        paper="Civit, Gilbert, Guerraoui, Komatovic & Vidigueira, "
        "arXiv:2308.03524",
        run_weak_ba=run_weak_ba,
        run_strong_ba=run_civit_strong_ba,
        run_adaptive_strong_ba=run_civit_adaptive_strong_ba,
        weak_ba_protocol=weak_ba_protocol,
        strong_ba_protocol=civit_strong_ba_protocol,
        adaptive_strong_ba_protocol=civit_adaptive_strong_ba_protocol,
        mc_scenarios=_mc_scenarios(),
        mc_strong_scenario="civit-strong-ba",
        silent_leader_forces_fallback=False,
        strong_ba_degrades_quadratically=False,
        weak_ba_shares_core_with="cohen",
        asba_non_silent_event="civit_view_non_silent",
        asba_certified_event="civit_certified",
        strong_ba_tick_bound=_strong_ba_tick_bound,
        strong_ba_word_budget=_strong_ba_word_budget,
    )
)
