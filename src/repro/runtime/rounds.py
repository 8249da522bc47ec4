"""The round driver: a protocol's per-round steps, run only in the
rounds in which they can do something.

The paper's protocols are written round by round, and almost every
round's step only *reacts*: it takes matching messages out of the
process's :class:`~repro.runtime.pool.MessagePool` and answers them.  A
silent phase is rounds of steps with nothing to react to.
:func:`run_rounds` is the one place that turns this into waiting: it
pools deliveries, calls the step of every round in which the pool holds
anything, and idles through the rest — rounds in which the hosts do not
resume the process at all (``docs/runtime.md``, "Waiting").
"""

from __future__ import annotations

from typing import Callable, Generator, Iterable, Sequence

from repro.runtime.context import ProcessContext
from repro.runtime.pool import MessagePool


def run_rounds(
    ctx: ProcessContext,
    pool: MessagePool,
    steps: Sequence[Callable[[int], int | None]],
    end: int,
    leads: Iterable[int] = (),
) -> Generator[int, None, None]:
    """From the current tick to tick ``end``, cycle through ``steps``
    one round per tick — round ``r`` runs step ``r % len(steps)`` of
    phase ``r // len(steps) + 1``, as ``step(phase)`` — pooling every
    inbox; returns at ``end`` with that tick's inbox pooled.  A step
    may return a new ``end`` (the fallback windows reopen themselves).

    **Soundness invariant** (tested per protocol in
    ``tests/test_sparse_time.py``): *a step is a no-op on an empty
    pool* — no send, no event, no state change — unless its round is in
    ``leads`` (ascending), the rounds in which this process may speak
    unprompted: a leader's first-round step.  So a round with nothing
    delivered and nothing pooled is skipped, a silent phase costs no
    resumption, and while the pool holds anything (a message for a
    later round, garbage) every round is visited, exactly as a dense
    loop would.  Another session's traffic does not keep rounds dense
    inside :func:`~repro.runtime.concurrency.join`, which hands each
    branch only its own session's envelopes."""
    start = now = ctx.now
    width = len(steps)
    ahead = iter(leads)
    lead = next(ahead, None)
    while now < end:
        r = now - start
        leading = False
        while lead is not None and lead <= r:
            leading = lead == r
            lead = next(ahead, None)
        if pool or leading:
            moved = steps[r % width](r // width + 1)
            if moved is not None and now >= (end := moved):
                break
        if pool:
            yield  # something is pooled: visit the next round
            pool.extend(ctx.inbox)
            now += 1
        else:
            wake = end if lead is None else min(end, start + lead)
            pool.extend((yield from ctx.idle(wake - now)))
            now = ctx.now


def run_phases(
    ctx: ProcessContext,
    pool: MessagePool,
    steps: Sequence[Callable[[int], None]],
    phases: int,
) -> Generator[int, None, None]:
    """Rotating-leader phases ``1..phases``: ``steps[i](phase)`` is
    round ``i`` of ``phase``, and only the phase's leader may act on an
    empty pool, in ``steps[0]``."""
    leads = [
        (phase - 1) * len(steps)
        for phase in ctx.config.phases_led_by(ctx.pid, phases)
    ]
    return run_rounds(ctx, pool, steps, ctx.now + phases * len(steps), leads)
