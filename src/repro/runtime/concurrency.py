"""Round-level concurrency: run several sub-protocols in lockstep.

:func:`join` interleaves protocol generators over one context: a
still-running branch is advanced whenever it is due
(:func:`~repro.runtime.host.due`), and the join itself waits for the
earliest of its branches' deadlines.  All branches observe the same
``ctx.inbox``; because the protocols consume messages through
session-tagged :class:`~repro.runtime.pool.MessagePool` filters, each
branch simply ignores the others' traffic.  Requirements:

* branches must use **distinct sessions** (message tags must not
  collide — certificates are already session-bound, so cross-branch
  forgery is impossible either way);
* branches must be pool-based in the standard style (every protocol in
  this library is);
* a branch is resumed at exactly the ticks it would be resumed at
  running alone, so its internal round schedule is preserved relative
  to the shared clock.

Scope attribution stays correct: each branch's scope stack is swapped
in before it is resumed and parked when it yields, so interleaved
``with ctx.scope(...)`` blocks do not contaminate each other.

The flagship use is slot pipelining in the SMR app
(:mod:`repro.apps.pipelined`): ``k`` Byzantine-Broadcast slots in
flight at once divide the log's per-slot latency by ``k`` without
touching the protocol code.
"""

from __future__ import annotations

from typing import Any, Generator, Sequence

from repro.runtime.context import ProcessContext
from repro.runtime.host import due, wake_tick

_PENDING = object()


def join(
    ctx: ProcessContext,
    branches: Sequence[Generator[int | None, None, Any]],
) -> Generator[int, None, list[Any]]:
    """Run ``branches`` concurrently; return their results in order.

    Each time the join runs, every unfinished branch that is due is
    advanced once; the join then yields the earliest pending deadline.
    It returns when the last branch finishes.
    """
    results: list[Any] = [_PENDING] * len(branches)
    deadlines = [ctx.now] * len(branches)  # every branch starts at once
    # Each branch runs under its own copy of the caller's scope stack,
    # swapped in for its turn and parked when it yields.
    outer = ctx.swap_scope_stack(list())
    ctx.swap_scope_stack(outer)
    stacks: list[list[str]] = [list(outer) for _ in branches]

    try:
        while True:
            now, inbox = ctx.now, ctx.inbox
            wake = None  # the earliest deadline among unfinished branches
            for index, branch in enumerate(branches):
                if results[index] is not _PENDING:
                    continue
                if due(inbox, now, deadlines[index]):
                    ctx.swap_scope_stack(stacks[index])
                    try:
                        deadlines[index] = wake_tick(next(branch), now)
                    except StopIteration as stop:
                        results[index] = stop.value
                        continue
                    finally:
                        ctx.swap_scope_stack(outer)
                if wake is None or deadlines[index] < wake:
                    wake = deadlines[index]
            if wake is None:
                break
            yield wake
    finally:
        # Closed mid-wave (the process crashed) or a branch raised:
        # unwind every in-flight branch under its own parked stack, not
        # later in the GC against whatever stack is swapped in by then.
        for index, branch in enumerate(branches):
            if results[index] is _PENDING:
                ctx.swap_scope_stack(stacks[index])
                try:
                    branch.close()
                finally:
                    ctx.swap_scope_stack(outer)
    return list(results)
