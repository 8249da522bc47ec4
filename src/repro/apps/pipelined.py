"""Pipelined SMR: ``window`` Byzantine-Broadcast slots in flight at once.

The sequential SMR (:mod:`repro.apps.smr`) pays one full BB latency per
slot.  Since slots are independent BB instances with disjoint sessions,
:func:`repro.runtime.concurrency.join` can run a *window* of them
concurrently: the wave completes in roughly one BB's worth of rounds,
cutting log latency by ~``window`` while leaving the protocol code —
and all of its guarantees — untouched.

Each sender slot proposes up to ``batch_size`` still-uncommitted
commands from the replica's queue, and commands are deduplicated at
commit time, so fan-out submission commits exactly once even when two
slots in the same wave carry the same command.  ``window=1`` is the
sequential batched log: the ``batched_smr`` table row builds this
replica with one slot in flight.
"""

from __future__ import annotations

from typing import Any, Generator, Sequence

from repro.apps.clients import ClientWorkload, Command, assign_queues
from repro.apps.smr import KeyValueStore, SmrOutcome
from repro.config import ProcessId, RunParameters, SystemConfig
from repro.core.byzantine_broadcast import byzantine_broadcast_protocol
from repro.core.values import BOTTOM
from repro.runtime.concurrency import join
from repro.runtime.context import ProcessContext


def pipelined_smr_replica_protocol(
    ctx: ProcessContext,
    pending: Sequence[Command],
    num_slots: int,
    *,
    window: int = 4,
    batch_size: int = 4,
) -> Generator[None, None, SmrOutcome]:
    """Run ``num_slots`` BB slots in waves of ``window``."""
    with ctx.scope("smr"):
        store = KeyValueStore()
        log: list[Command] = []
        committed: set[tuple] = set()
        queue: list[Command] = list(pending)

        for wave_start in range(0, num_slots, window):
            slots = list(range(wave_start, min(wave_start + window, num_slots)))

            # Choose this replica's proposals for its sender slots up
            # front (committed commands from earlier waves are excluded;
            # two same-wave slots led by this replica get disjoint
            # batches).
            reserved: set[tuple] = set()
            proposals: dict[int, tuple] = {}
            for slot in slots:
                if slot % ctx.config.n != ctx.pid:
                    continue
                batch = []
                for command in queue:
                    if command.key in committed or command.key in reserved:
                        continue
                    batch.append(command)
                    reserved.add(command.key)
                    if len(batch) >= batch_size:
                        break
                proposals[slot] = tuple(batch)

            branches = [
                byzantine_broadcast_protocol(
                    ctx,
                    slot % ctx.config.n,
                    proposals.get(slot),
                    session=f"smr/{slot}",
                )
                for slot in slots
            ]
            decisions = yield from join(ctx, branches)

            for slot, decision in zip(slots, decisions):
                if decision == BOTTOM or not isinstance(decision, tuple):
                    ctx.emit("smr_empty_slot", slot=slot)
                    continue
                fresh = 0
                for item in decision:
                    if not isinstance(item, Command) or item.key in committed:
                        continue
                    committed.add(item.key)
                    log.append(item)
                    store.apply(item.op)
                    fresh += 1
                ctx.emit("smr_committed_batch", slot=slot, size=fresh)
            queue = [c for c in queue if c.key not in committed]

        return SmrOutcome(
            log=tuple(log), state=store.snapshot(), applied=store.applied
        )


def build(meta: dict, **_code):
    """``meta -> factory(ctx)``, the ``pipelined_smr`` row's builder."""
    return lambda ctx: pipelined_smr_replica_protocol(
        ctx,
        meta.get("queue", ()),
        meta["num_slots"],
        window=meta.get("window", 4),
        batch_size=meta.get("batch_size", 4),
    )


def build_batched(meta: dict, **_code):
    """The ``batched_smr`` row's builder: its metas name no window, and
    the replica runs one slot at a time."""
    return build({**meta, "window": 1})


def run_pipelined_smr(
    config: SystemConfig,
    workloads: Sequence[ClientWorkload],
    num_slots: int,
    *,
    window: int = 4,
    batch_size: int = 4,
    seed: int = 0,
    byzantine: dict[ProcessId, Any] | None = None,
    max_ticks: int = 500_000,
    params: RunParameters | None = None,
):
    """Drive a pipelined SMR run over the simulator.

    ``params`` threads the shared run knobs (fault plan with scheduled
    crash/restart faults, observer, recovery manager) through the
    pipeline — a crashed replica replays its WAL and rejoins with its
    in-flight window reconstructed."""
    from repro.protocols.table import run_protocol

    metas = {
        pid: {
            "num_slots": num_slots,
            "window": window,
            "batch_size": batch_size,
            "queue": tuple(queue),
        }
        for pid, queue in assign_queues(workloads, config).items()
    }
    return run_protocol(
        "pipelined_smr", config, metas, seed=seed, byzantine=byzantine,
        params=params or RunParameters(max_ticks=max_ticks),
    )
