"""``Afallback`` — quadratic synchronous strong BA for ``n = 2t + 1``.

The paper invokes Momose–Ren [14] as a black box: a synchronous strong
BA with optimal resilience and ``O(n^2)`` words.  This module provides
that black box with the same recursive structure (DESIGN.md Section 3):

``recursive_ba(S)`` for a committee ``S`` of size ``m``:

1. run :func:`~repro.fallback.graded_consensus.graded_consensus` among
   ``S`` — ``O(m^2)`` words;
2. the first half ``A`` of ``S`` runs ``recursive_ba(A)`` and every
   member of ``A`` reports the outcome to all of ``S`` — ``O(m^2 / 2)``;
   members with grade ``< 2`` adopt the value reported by a strict
   majority of ``A``;
3. repeat steps 1–2 with the second half ``B``.

Word complexity: ``C(m) = 2 C(m/2) + O(m^2) = O(m^2)`` — quadratic, the
Momose–Ren bound.  Rounds: ``R(m) = 2 R(m/2) + O(1) = O(m)``.

Correctness (strong BA among the honest members of ``S``, *provided
``S`` has an honest strict majority* — guaranteed at the top level by
``n = 2t + 1``):

* **Strong unanimity** — if all honest members input ``v``, graded
  consensus validity gives everyone ``(v, 2)``; grade-2 members ignore
  committee reports, so ``v`` survives both halves.
* **Agreement** — at least one half has an honest strict majority (if
  both halves had honest minorities, ``S`` itself would); induction
  makes that half's recursive BA correct.  For that half's phase:
  if some honest member graded 2 on ``u``, graded agreement puts every
  honest member's value at ``u``, the half's BA decides ``u`` (validity)
  and both keepers and adopters end with ``u``.  If no honest member
  graded 2, *every* honest member adopts, and the half's honest members
  report one common value (its BA's agreement), which forms the unique
  strict majority among the reports.  Either way all honest members of
  ``S`` leave that phase unanimous, and unanimity persists through the
  other half's phase by graded-consensus validity.
* **Termination** — the round schedule is a fixed function of ``|S|``
  (:func:`ba_rounds`); non-members of a recursing half sleep exactly
  that many rounds.

Rushing, skew, and Lemma 18: invoked as the paper's fallback, members
may start up to ``delta`` apart; ``round_ticks=2`` (the paper's
``delta' = 2 * delta``) plus the shared :class:`MessagePool` implements
Lemma 18's acceptance window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Generator

from repro.config import ProcessId, RunParameters, SystemConfig
from repro.runtime.context import ProcessContext
from repro.runtime.pool import MessagePool
from repro.fallback.graded_consensus import GC_ROUNDS, graded_consensus

FALLBACK_ROUND_TICKS = 2
"""The paper's ``delta' = 2 * delta`` (Section 6, Lemma 18)."""


@dataclass(frozen=True)
class CommitteeReport:
    """A committee member's signed report of its recursive decision."""

    session: str
    value: object

    def signatures(self) -> int:
        return 1  # the member's signature on the report


@dataclass(frozen=True)
class PairProposal:
    """Size-2 base case: the lower-id member's signed value."""

    session: str
    value: object

    def signatures(self) -> int:
        return 1  # the proposer's signature


def ba_rounds(m: int) -> int:
    """Synchronous rounds ``recursive_ba`` occupies for a committee of ``m``.

    Every process — member or not — must know this schedule so that
    non-members sleep exactly through a half's recursion.
    """
    if m <= 1:
        return 0
    if m == 2:
        return 1
    half_a = math.ceil(m / 2)
    half_b = m - half_a
    return (
        GC_ROUNDS
        + ba_rounds(half_a)
        + 1  # A's report round
        + GC_ROUNDS
        + ba_rounds(half_b)
        + 1  # B's report round
    )


def _sleep_rounds(
    ctx: ProcessContext, rounds: int, round_ticks: int, pool: MessagePool
) -> Generator[None, None, None]:
    pool.extend((yield from ctx.sleep(rounds * round_ticks)))


def _committee_phase(
    ctx: ProcessContext,
    members: tuple[ProcessId, ...],
    half: tuple[ProcessId, ...],
    value: object,
    session: str,
    round_ticks: int,
    pool: MessagePool,
) -> Generator[None, None, object]:
    """One graded-consensus + one half-committee recursion + adoption."""
    value, grade = yield from graded_consensus(
        ctx, members, value, f"{session}/gc", round_ticks, pool
    )

    if ctx.pid in half:
        decision = yield from recursive_ba(
            ctx, half, value, f"{session}/rec", round_ticks, pool
        )
        ctx.multicast(
            members, CommitteeReport(session=f"{session}/rep", value=decision)
        )
    else:
        yield from _sleep_rounds(ctx, ba_rounds(len(half)), round_ticks, pool)

    pool.extend((yield from ctx.sleep(round_ticks)))  # report round

    if grade == 2:
        return value

    counts: dict[object, set[ProcessId]] = {}
    half_set = ctx.suite.committee(half)[1]
    for envelope in pool.take_payloads(
        CommitteeReport,
        lambda e: e.sender in half_set,
        session=f"{session}/rep",
    ):
        try:
            counts.setdefault(envelope.payload.value, set()).add(envelope.sender)
        except TypeError:
            continue  # unhashable adversarial value
    majority = len(half) // 2 + 1
    for reported_value, reporters in counts.items():
        if len(reporters) >= majority:
            return reported_value
    return value


def recursive_ba(
    ctx: ProcessContext,
    members: tuple[ProcessId, ...],
    value: object,
    session: str,
    round_ticks: int,
    pool: MessagePool,
) -> Generator[None, None, object]:
    """Strong BA among ``members`` (honest-majority committees).

    ``ctx.pid`` must be a member; non-members sleep via
    :func:`ba_rounds` in the caller.
    """
    m = len(members)
    if m == 1:
        return value

    if m == 2:
        leader = members[0]
        if ctx.pid == leader:
            ctx.send(members[1], PairProposal(session=session, value=value))
        pool.extend((yield from ctx.sleep(round_ticks)))
        if ctx.pid == leader:
            return value
        proposals = pool.take_payloads(
            PairProposal, lambda e: e.sender == leader, session=session
        )
        if proposals:
            return proposals[0].payload.value
        return value

    half_a = members[: math.ceil(m / 2)]
    half_b = members[math.ceil(m / 2) :]
    value = yield from _committee_phase(
        ctx, members, half_a, value, f"{session}/A", round_ticks, pool
    )
    value = yield from _committee_phase(
        ctx, members, half_b, value, f"{session}/B", round_ticks, pool
    )
    return value


def fallback_ba(
    ctx: ProcessContext,
    initial_value: object,
    *,
    session: str = "fallback",
    round_ticks: int = FALLBACK_ROUND_TICKS,
    pool: MessagePool | None = None,
) -> Generator[None, None, object]:
    """``Afallback``: strong BA over all ``n`` processes, ``O(n^2)`` words.

    Invoked by the paper's weak BA (Alg. 3 line 24) and fast strong BA
    (Alg. 5 line 28) with ``round_ticks=2``; safe for any ``f <= t``
    because ``n = 2t + 1`` guarantees the top-level committee an honest
    strict majority.
    """
    with ctx.scope("fallback"):
        ctx.emit("fallback_started", value=repr(initial_value))
        members = tuple(ctx.config.processes)
        if pool is None:
            pool = MessagePool()
        decision = yield from recursive_ba(
            ctx, members, initial_value, session, round_ticks, pool
        )
        ctx.emit("fallback_decided", value=repr(decision))
        return decision


def build(meta: dict, **_code):
    """``meta -> factory(ctx)``, the table row's builder; a meta without
    ``round_ticks`` runs one tick per round, as the standalone driver."""
    return lambda ctx: fallback_ba(
        ctx,
        meta.get("input"),
        session=meta.get("session", "fallback"),
        round_ticks=meta.get("round_ticks", 1),
    )


def run_fallback_ba(
    config: SystemConfig,
    inputs: dict[ProcessId, Any],
    *,
    seed: int = 0,
    byzantine: dict[ProcessId, Any] | None = None,
    round_ticks: int = 1,
    params: RunParameters | None = None,
):
    """Standalone driver: run ``Afallback`` alone over the simulator.

    ``inputs`` maps every correct pid to its initial value; ``byzantine``
    maps corrupted pids to behavior objects.  Returns the
    :class:`~repro.runtime.result.RunResult`.
    """
    from repro.protocols.table import run_protocol

    metas = {
        pid: {"input": value, "round_ticks": round_ticks}
        for pid, value in inputs.items()
    }
    return run_protocol(
        "recursive_ba", config, metas, seed=seed, byzantine=byzantine,
        params=params,
    )
