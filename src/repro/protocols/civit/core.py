"""Civit-style strong BA: the certified-input stack with ``t+1`` views.

Reproduction of the *STRONG paradigm* of Civit, Gilbert, Guerraoui,
Komatovic & Vidigueira, "Strong Byzantine Agreement with Adaptive Word
Complexity" (arXiv:2308.03524): strong validity is reduced to **input
certification** — a ``t+1``-threshold certificate on ``("input", v)``
proves at least one *correct* process proposed ``v`` — and
agreement/termination are delegated to an adaptive agreement core run
over the certified values.  That stack is the repo's Section-3
extension, written once in :mod:`repro.core.adaptive_strong_ba`; this
backend builds it with:

* ``t + 1`` certification views (rotating certifiers, silent when they
  already hold a certificate) — the paper's view count, not one per
  weak-BA phase;
* a **binary** row (:func:`build_strong_ba`) that resolves ``⊥`` to
  ``RESOLUTION_VALUE`` and so **never outputs ⊥** — unlike Algorithm
  5's fallback path — and a multivalued row
  (:func:`build_adaptive_strong_ba`) where ``⊥`` stays permitted;
* its envelopes, :func:`strong_ba_tick_bound` and
  :func:`strong_ba_word_budget`.

Complexity: with ``f`` silent faults and unanimous (or ``t+1``-popular)
inputs, at most one correct certification view is non-silent and the
weak BA core is adaptive, so the bill is ``O(n(f+1))`` whenever ``f``
is below the fallback threshold ``(n-t-1)/2`` — in particular it stays
*linear* at ``f = 1``, where Algorithm 5's ``n``-of-``n`` decide
certificate is already unreachable and its bill jumps to ``O(n^2)``.
That differential is the content of
``benchmarks/results/backend_adaptivity.json``.  In mixed runs where no
value reaches ``t + 1`` correct shares, every correct certifier probes
and the certification layer degrades to ``O(n^2)`` — an honest fidelity
gap against the exact STRONG protocol (whose pseudocode this module
does not transcribe; see ``docs/backends.md``).
"""

from __future__ import annotations

from repro.config import SystemConfig
from repro.core.adaptive_strong_ba import (
    CERT_PHASE_ROUNDS,
    adaptive_strong_ba_protocol,
)


def certification_views(meta: dict, config: SystemConfig) -> int:
    """The binary row's view count: ``meta["num_views"]`` when given
    (the model checker's knob), else the paper's ``t + 1``."""
    views = meta.get("num_views")
    return views if views is not None else config.t + 1


def build_strong_ba(
    meta: dict,
    *,
    commit_quorum: int | None = None,
    echo_fallback_certificate: bool = True,
    **_code,
):
    """``meta -> factory(ctx)``, the binary row's builder; the two code
    keywords are the inner weak BA's mutation knobs."""
    return lambda ctx: adaptive_strong_ba_protocol(
        ctx,
        meta.get("input"),
        session=meta.get("session", "civit"),
        binary=True,
        num_views=certification_views(meta, ctx.config),
        num_phases=meta.get("num_phases"),
        commit_quorum=commit_quorum,
        echo_fallback_certificate=echo_fallback_certificate,
    )


def build_adaptive_strong_ba(meta: dict, **_code):
    """``meta -> factory(ctx)`` for the multivalued variant."""
    return lambda ctx: adaptive_strong_ba_protocol(
        ctx,
        meta.get("input"),
        session=meta.get("session", "civit-asba"),
        num_views=ctx.config.t + 1,
        num_phases=meta.get("num_phases"),
    )


def strong_ba_tick_bound(config: SystemConfig) -> int:
    """Failure-free ticks: ``t + 1`` certification views of
    :data:`CERT_PHASE_ROUNDS` ticks, then the whole weak-BA round
    structure (6 ticks per phase, ``n`` phases, help and grace
    epilogue)."""
    return CERT_PHASE_ROUNDS * (config.t + 1) + 6 * config.n + 15


def strong_ba_word_budget(config: SystemConfig, f: int) -> float:
    """Word envelope of a run with ``f`` silent faults.  Below the
    ``(n-t-1)/2`` fallback threshold the whole stack stays adaptive —
    one correct certification view plus the weak BA's ``O(n(f+1))``
    bill; at or above it the shared weak-BA core legitimately runs its
    quadratic fallback."""
    n = config.n
    if f >= config.fallback_failure_threshold:
        return 90.0 * n * n
    return 45.0 * n * (f + 1)
