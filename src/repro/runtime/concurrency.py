"""Round-level concurrency: run several sub-protocols in lockstep.

:func:`join` interleaves protocol generators over one context, each
keyed by its **session**: a still-running branch is advanced whenever
it is due (:func:`~repro.runtime.host.due`) on its own inbox, and the
join itself waits for the earliest of its branches' deadlines.

Each resumption routes ``ctx.inbox`` once.  An envelope whose payload's
``session`` is a ``str`` equal to a branch's key, or nested under it
(``smr/3/wba`` under ``smr/3``, never ``smr/30``), goes to that branch
alone; anything else (no session, a non-``str`` one, one no branch
owns) goes to every branch, exactly as if the branches ran alone.  A
branch's :class:`~repro.runtime.pool.MessagePool` therefore never holds
another branch's traffic, so its round driver skips the rounds in which
its own session is silent.  The rounds this routing saves are ones in
which every step ran on a pool holding nothing it takes — no-ops by the
soundness invariant of :func:`~repro.runtime.rounds.run_rounds` — so no
send, event or decision moves.  Requirements:

* keys are distinct and none nests inside another (``"a"`` and
  ``"a/b"``), so every session has at most one owner;
  :class:`~repro.errors.JoinError` otherwise;
* branches must be pool-based in the standard style (every protocol in
  this library is) and tag their traffic with their key;
* a branch is resumed at exactly the ticks it would be resumed at
  running alone, so its internal round schedule is preserved relative
  to the shared clock.

While a branch runs, ``ctx.inbox`` is its routed inbox and the scope
stack is its own: both are swapped in before it is resumed and swapped
back however it leaves (yield, return, raise), so interleaved
``with ctx.scope(...)`` blocks do not contaminate each other and the
host sees its own inbox again.  Every host and WAL replay drive ``join``
through ``ctx.inbox``, so the routing is the same on all of them.

The flagship use is slot pipelining in the SMR app
(:mod:`repro.apps.pipelined`): ``k`` Byzantine-Broadcast slots in
flight at once divide the log's per-slot latency by ``k`` without
touching the protocol code.
"""

from __future__ import annotations

from typing import Any, Generator, Mapping

from repro.errors import JoinError
from repro.runtime.context import ProcessContext
from repro.runtime.envelope import Envelope
from repro.runtime.host import due, wake_tick

_PENDING = object()


def _owners(keys: list[str]) -> dict[str, int]:
    """Each key's branch index; raises unless the keys are distinct
    strings none of which nests inside another."""
    for key in keys:
        if type(key) is not str:
            raise JoinError(f"join branch keys are sessions (str), got {key!r}")
    owners = {key: index for index, key in enumerate(keys)}
    if len(owners) < len(keys):
        raise JoinError(f"join branch sessions repeat: {keys!r}")
    for key in keys:
        for outer in keys:
            if key.startswith(outer + "/"):
                raise JoinError(
                    f"join branch session {key!r} nests inside {outer!r}: "
                    f"its traffic would have two owners"
                )
    return owners


def _owner(session: str, owners: dict[str, int]) -> int | None:
    """The branch whose key ``session`` is nested under, if any."""
    cut = session.find("/")
    while cut >= 0:
        index = owners.get(session[:cut])
        if index is not None:
            return index
        cut = session.find("/", cut + 1)
    return None


def _route(
    inbox: list[Envelope], owners: dict[str, int], memo: dict[str, int | None]
) -> list[list[Envelope]]:
    """Split ``inbox`` into one list per branch, in arrival order."""
    if not inbox:
        return [inbox] * len(owners)
    routed: list[list[Envelope]] = [[] for _ in owners]
    for envelope in inbox:
        session = getattr(envelope.payload, "session", None)
        index = None
        if type(session) is str:
            if session in memo:
                index = memo[session]
            else:
                index = memo[session] = _owner(session, owners)
        if index is None:
            for box in routed:
                box.append(envelope)
        else:
            routed[index].append(envelope)
    return routed


def join(
    ctx: ProcessContext,
    branches: Mapping[str, Generator[int | None, None, Any]],
) -> Generator[int, None, list[Any]]:
    """Run ``branches``, keyed by session, concurrently; return their
    results in mapping order.

    Each time the join runs, ``ctx.inbox`` is routed to the branches
    by session and every unfinished branch that is due on its own inbox
    is advanced once; the join then yields the earliest pending
    deadline.  It returns when the last branch finishes.
    """
    pairs = list(branches.items())
    owners = _owners([key for key, _ in pairs])
    generators = [generator for _, generator in pairs]
    memo: dict[str, int | None] = dict(owners)  # session -> branch, or None
    results: list[Any] = [_PENDING] * len(generators)
    deadlines = [ctx.now] * len(generators)  # every branch starts at once
    # Each branch runs under its own copy of the caller's scope stack,
    # swapped in for its turn and parked when it yields.
    outer = ctx.swap_scope_stack(list())
    ctx.swap_scope_stack(outer)
    stacks: list[list[str]] = [list(outer) for _ in generators]

    try:
        while True:
            now, inbox = ctx.now, ctx.inbox
            routed = _route(inbox, owners, memo)
            wake = None  # the earliest deadline among unfinished branches
            for index, branch in enumerate(generators):
                if results[index] is not _PENDING:
                    continue
                if due(routed[index], now, deadlines[index]):
                    ctx.swap_scope_stack(stacks[index])
                    ctx.inbox = routed[index]
                    try:
                        deadlines[index] = wake_tick(next(branch), now)
                    except StopIteration as stop:
                        results[index] = stop.value
                        continue
                    finally:
                        ctx.swap_scope_stack(outer)
                        ctx.inbox = inbox
                if wake is None or deadlines[index] < wake:
                    wake = deadlines[index]
            if wake is None:
                break
            yield wake
    finally:
        # Closed mid-wave (the process crashed) or a branch raised:
        # unwind every in-flight branch under its own parked stack, not
        # later in the GC against whatever stack is swapped in by then.
        for index, branch in enumerate(generators):
            if results[index] is _PENDING:
                ctx.swap_scope_stack(stacks[index])
                try:
                    branch.close()
                finally:
                    ctx.swap_scope_stack(outer)
    return list(results)
