#!/usr/bin/env python3
"""The same protocols on a real asyncio transport.

The protocol implementations are transport-independent generators; here
they run as concurrent asyncio tasks exchanging messages through
latency-bearing queues, instead of the deterministic tick simulator.  A
round ends as soon as every task has finished it and every message due
in it has arrived; the wall-clock synchrony bound delta is only the
round's timeout.  Word bills match the simulator exactly.

Run:  python examples/asyncio_cluster.py
"""

import asyncio

from repro.asyncnet import run_async
from repro.config import SystemConfig
from repro.core.byzantine_broadcast import (
    byzantine_broadcast_protocol,
    run_byzantine_broadcast,
)
from repro.core.strong_ba import strong_ba_protocol


async def main() -> None:
    config = SystemConfig.with_optimal_resilience(5)
    # The synchrony bound delta is each round's timeout, in seconds.
    # Rounds close on completion, so a delta far above localhost jitter
    # costs nothing unless a copy is late, and no round closes early on
    # a loaded machine (which would deliver a copy a round late and
    # change the bill).
    tick = 2.0
    latency = 0.005

    print(f"cluster: n={config.n}, delta={tick * 1000:.0f} ms, "
          f"link latency={latency * 1000:.0f} ms")

    result = await run_async(
        config,
        {
            pid: (lambda ctx: byzantine_broadcast_protocol(ctx, 0, "wire-value"))
            for pid in config.processes
        },
        tick_duration=tick,
        latency=latency,
    )
    print(f"\nByzantine Broadcast over asyncio: "
          f"decided {result.unanimous_decision()!r} in {result.ticks} "
          f"rounds, {result.elapsed:.2f}s, {result.correct_words} words")

    simulated = run_byzantine_broadcast(config, sender=0, value="wire-value")
    print(f"tick simulator, same run:          "
          f"decided {simulated.unanimous_decision()!r}, "
          f"{simulated.correct_words} words")
    assert result.correct_words == simulated.correct_words
    print("word bills identical — the transports are interchangeable")

    crashed = frozenset({3})
    result = await run_async(
        config,
        {
            pid: (lambda ctx: strong_ba_protocol(ctx, 1))
            for pid in config.processes
            if pid not in crashed
        },
        tick_duration=tick,
        crashed=crashed,
    )
    print(f"\nstrong BA with replica 3 down: decided "
          f"{result.unanimous_decision()!r} "
          f"({'fallback' if result.trace.any('fallback_started') else 'fast path'}, "
          f"{result.correct_words} words)")


if __name__ == "__main__":
    asyncio.run(main())
