"""Phase-King Byzantine Agreement — the *unauthenticated* baseline.

A classical strong binary BA that uses **no cryptography at all** (the
Attiya–Welch formulation of the Berman–Garay–Perry king paradigm):
resilience ``n >= 4t + 1`` (strictly worse than the paper's ``2t+1``),
``t + 1`` phases of one all-to-all exchange plus a king broadcast —
``O(n^2)`` words per phase, hence ``O(n^2 t) = O(n^3)`` total at
``t = Θ(n)``.

Why it is in this repository: the paper's landscape has three corners —
classical authenticated (Dolev–Strong: optimal messages, cubic words,
any ``t < n``), classical unauthenticated (Phase King: no PKI, weak
resilience, cubic words), and the paper's protocols (PKI + threshold
signatures: optimal resilience, adaptive words).  The benchmark
``bench_baseline_phase_king.py`` measures all three side by side.

Protocol, per phase ``k = 1..t+1`` (binary preferences):

1. everyone broadcasts its preference; let ``maj`` be the majority
   value seen and ``mult`` its multiplicity;
2. the phase king ``p_{k mod n}`` broadcasts its ``maj``; a process
   keeps its own ``maj`` if ``mult > n/2 + t`` (it is *sure*), else
   adopts the king's.

Correctness (``n >= 4t + 1``): (persistence) if all correct processes
prefer ``v``, every correct process counts ``>= n - t > n/2 + t`` for
``v`` and stays; (king phase) if the king is correct and some correct
process stays with ``v``, then ``v`` had ``> n/2`` support at *every*
correct process — including the king — so adopters get ``v`` too.  One
of the ``t + 1`` kings is correct, and agreement persists afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator

from repro.config import ProcessId, SystemConfig
from repro.errors import ConfigurationError
from repro.runtime.context import ProcessContext

BINARY = (0, 1)


@dataclass(frozen=True)
class PkPreference:
    """Exchange 1: a process's current preference (channel-auth only)."""

    session: str
    phase: int
    value: int

    def signatures(self) -> int:
        return 0  # the whole point: no signatures anywhere


@dataclass(frozen=True)
class PkKingValue:
    """Exchange 2: the phase king's tie-break value."""

    session: str
    phase: int
    value: int

    def signatures(self) -> int:
        return 0


def check_phase_king_resilience(config: SystemConfig) -> None:
    """This classical protocol needs ``n >= 4t + 1``."""
    if config.n < 4 * config.t + 1:
        raise ConfigurationError(
            f"phase king requires n >= 4t + 1; got n={config.n}, t={config.t}"
        )


def phase_king_protocol(
    ctx: ProcessContext,
    initial_value: int,
    *,
    session: str = "pk",
) -> Generator[None, None, int]:
    """Run Phase-King binary BA; returns the decision (0 or 1)."""
    check_phase_king_resilience(ctx.config)
    if initial_value not in BINARY:
        raise ConfigurationError(
            f"phase king is binary; got initial value {initial_value!r}"
        )
    with ctx.scope("phase_king"):
        config = ctx.config
        n, t = config.n, config.t
        preference = initial_value

        for phase in range(1, t + 2):
            king = phase % n

            ctx.broadcast(
                PkPreference(session=session, phase=phase, value=preference)
            )
            yield
            counts = {0: 0, 1: 0}
            seen: set[ProcessId] = set()
            for envelope in ctx.inbox:
                payload = envelope.payload
                if (
                    isinstance(payload, PkPreference)
                    and payload.session == session
                    and payload.phase == phase
                    and payload.value in BINARY
                    and envelope.sender not in seen
                ):
                    seen.add(envelope.sender)
                    counts[payload.value] += 1
            majority = 1 if counts[1] >= counts[0] else 0
            multiplicity = counts[majority]

            if ctx.pid == king:
                ctx.broadcast(
                    PkKingValue(session=session, phase=phase, value=majority)
                )
            yield
            if multiplicity > n / 2 + t:
                preference = majority  # sure: keep regardless of the king
            else:
                preference = majority
                for envelope in ctx.inbox:
                    payload = envelope.payload
                    if (
                        isinstance(payload, PkKingValue)
                        and payload.session == session
                        and payload.phase == phase
                        and payload.value in BINARY
                        and envelope.sender == king
                    ):
                        preference = payload.value
                        break

        ctx.emit("decided", value=preference, session=session)
        return preference


def build(meta: dict, **_code):
    """``meta -> factory(ctx)``, the table row's builder."""
    return lambda ctx: phase_king_protocol(
        ctx, meta.get("input"), session=meta.get("session", "pk")
    )


def run_phase_king(
    config: SystemConfig,
    inputs: dict[ProcessId, int],
    *,
    seed: int = 0,
    byzantine: dict[ProcessId, Any] | None = None,
):
    """Standalone driver for the Phase-King baseline."""
    from repro.protocols.table import run_protocol

    check_phase_king_resilience(config)
    metas = {pid: {"input": value} for pid, value in inputs.items()}
    return run_protocol(
        "phase_king", config, metas, seed=seed, byzantine=byzantine
    )
