"""The Cohen–Keidar–Spiegelman backend: the paper this repo reproduces.

Pure wiring — every driver and factory already lives in
:mod:`repro.core`; this module lifts them
behind the shared :class:`~repro.protocols.base.Backend` surface so
runtimes and the conformance suite can dispatch on ``"cohen"``.  The
protocol code paths are untouched, which is what keeps pre-refactor
traces byte-identical (``tests/test_backends.py`` pins
``Trace.canonical()`` equality between backend-dispatched and
direct-import runs).
"""

from __future__ import annotations

from repro.config import SystemConfig
from repro.core.adaptive_strong_ba import (
    adaptive_strong_ba_protocol,
    run_adaptive_strong_ba,
)
from repro.core.strong_ba import run_strong_ba, strong_ba_protocol
from repro.core.weak_ba import run_weak_ba, weak_ba_protocol
from repro.protocols.base import Backend, register_backend


def _strong_ba_tick_bound(config: SystemConfig) -> int:
    # 4 leader rounds + final delivery + the grace listening window.
    return 4 + 1 + 4


def _strong_ba_word_budget(config: SystemConfig, f: int) -> float:
    n = config.n
    if f == 0:
        # Lemma 8: the failure-free fast path is 4 linear rounds.
        return 8.0 * n
    # Any failure denies the n-of-n decide certificate: everyone runs
    # the quadratic fallback.
    return 90.0 * n * n


COHEN = register_backend(
    Backend(
        name="cohen",
        title="Make Every Word Count: adaptive BA with fewer words",
        paper="Cohen, Keidar & Spiegelman, PODC 2022",
        run_weak_ba=run_weak_ba,
        run_strong_ba=run_strong_ba,
        run_adaptive_strong_ba=run_adaptive_strong_ba,
        weak_ba_protocol=weak_ba_protocol,
        strong_ba_protocol=strong_ba_protocol,
        adaptive_strong_ba_protocol=adaptive_strong_ba_protocol,
        mc_scenarios={},  # "weak-ba" predates backends; it stays in repro.mc
        mc_strong_scenario="weak-ba",
        silent_leader_forces_fallback=True,
        strong_ba_degrades_quadratically=True,
        weak_ba_shares_core_with=None,
        strong_ba_tick_bound=_strong_ba_tick_bound,
        strong_ba_word_budget=_strong_ba_word_budget,
    )
)
