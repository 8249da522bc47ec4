"""Round-level concurrency: run several sub-protocols in lockstep.

:func:`join` interleaves protocol generators over one context: every
tick, each still-running branch is advanced by one ``yield``.  All
branches observe the same ``ctx.inbox``; because the protocols consume
messages through session-tagged :class:`~repro.runtime.pool.MessagePool`
filters, each branch simply ignores the others' traffic.  Requirements:

* branches must use **distinct sessions** (message tags must not
  collide — certificates are already session-bound, so cross-branch
  forgery is impossible either way);
* branches must be pool-based in the standard style (every protocol in
  this library is);
* branches advance exactly one round per ``join`` round, so a branch's
  internal round schedule is preserved relative to the shared clock.

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

_PENDING = object()


def join(
    ctx: ProcessContext,
    branches: Sequence[Generator[None, None, Any]],
) -> Generator[None, None, list[Any]]:
    """Run ``branches`` concurrently; return their results in order.

    Each round, every unfinished branch is advanced once; the joint
    generator then yields once.  Finished branches keep their return
    values; the join returns when the last branch finishes.
    """
    results: list[Any] = [_PENDING] * len(branches)
    stacks: list[list[str]] = [list() for _ in branches]
    base_stack = ctx.swap_scope_stack(list())
    ctx.swap_scope_stack(base_stack)

    try:
        while any(r is _PENDING for r in results):
            for index, branch in enumerate(branches):
                if results[index] is not _PENDING:
                    continue
                yield_stack = ctx.swap_scope_stack(
                    list(base_stack) + stacks[index]
                )
                try:
                    next(branch)
                except StopIteration as stop:
                    results[index] = stop.value
                finally:
                    # Park this branch's scope additions for its next turn.
                    parked = ctx.swap_scope_stack(yield_stack)
                    stacks[index] = parked[len(base_stack):]
            if any(r is _PENDING for r in results):
                yield
    finally:
        # Closed mid-wave (the process crashed) or a branch raised:
        # unwind every in-flight branch under its own parked stack, not
        # later in the GC against whatever stack is swapped in by then.
        for index, branch in enumerate(branches):
            if results[index] is _PENDING:
                yield_stack = ctx.swap_scope_stack(
                    list(base_stack) + stacks[index]
                )
                try:
                    branch.close()
                finally:
                    ctx.swap_scope_stack(yield_stack)
    return list(results)
