"""Mini state-machine replication on top of adaptive BB.

A replicated log is a sequence of *slots*; slot ``s`` is an adaptive
Byzantine Broadcast instance with rotating sender ``p_{s mod n}``.  All
replicas run the slots in lockstep, append every non-``⊥`` decision to
their log, and apply it to a deterministic state machine (here a small
key-value store).  BB's agreement gives identical logs; BB's validity
gives every correct sender's command a guaranteed slot; and BB's
*adaptive* communication makes the common failure-free slots cost
``O(n)`` words instead of the classical quadratic/cubic — the paper's
motivation in systems terms.

Commands are tuples:

* ``("set", key, value)``
* ``("del", key)``
* ``("noop",)``
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, Sequence

from repro.config import ProcessId, RunParameters, SystemConfig
from repro.core.byzantine_broadcast import byzantine_broadcast_protocol
from repro.core.values import BOTTOM
from repro.runtime.context import ProcessContext
from repro.runtime.pool import MessagePool


@dataclass
class KeyValueStore:
    """The deterministic state machine replicated by the log.

    >>> store = KeyValueStore()
    >>> store.apply(("set", "a", 1)); store.apply(("del", "a"))
    >>> store.apply(("set", "b", 2)); store.data
    {'b': 2}
    >>> store.snapshot()
    (('b', 2),)
    """

    data: dict[str, Any] = field(default_factory=dict)
    applied: int = 0

    def apply(self, command: object) -> None:
        """Apply one committed command; unknown shapes are no-ops (a
        Byzantine sender may commit garbage — state must stay defined)."""
        self.applied += 1
        if not isinstance(command, tuple) or not command:
            return
        if command[0] == "set" and len(command) == 3:
            key, value = command[1], command[2]
            if isinstance(key, str):
                self.data[key] = value
        elif command[0] == "del" and len(command) == 2:
            if isinstance(command[1], str):
                self.data.pop(command[1], None)

    def snapshot(self) -> tuple:
        """Hashable digest of the current state (for agreement checks)."""
        return tuple(sorted(self.data.items(), key=lambda kv: kv[0]))


@dataclass(frozen=True)
class SmrOutcome:
    """A replica's final view: the committed log and resulting state."""

    log: tuple
    state: tuple
    applied: int


def smr_replica_protocol(
    ctx: ProcessContext,
    my_commands: Sequence[object],
    num_slots: int,
) -> Generator[None, None, SmrOutcome]:
    """Run ``num_slots`` BB slots; propose ``my_commands`` in this
    replica's sender slots (``("noop",)`` when it has nothing queued).
    """
    with ctx.scope("smr"):
        store = KeyValueStore()
        log: list[object] = []
        queue = list(my_commands)
        pool = MessagePool()  # shared across slots (early-delivery safety)
        for slot in range(num_slots):
            sender = slot % ctx.config.n
            value: object = None
            if ctx.pid == sender:
                value = queue.pop(0) if queue else ("noop",)
            decision = yield from byzantine_broadcast_protocol(
                ctx, sender, value, session=f"smr/{slot}", pool=pool
            )
            if decision != BOTTOM and decision is not None:
                log.append(decision)
                store.apply(decision)
                ctx.emit("smr_committed", slot=slot, command=repr(decision))
            else:
                ctx.emit("smr_empty_slot", slot=slot)
        return SmrOutcome(
            log=tuple(log), state=store.snapshot(), applied=store.applied
        )


def build(meta: dict, **_code):
    """``meta -> factory(ctx)``, the table row's builder."""
    return lambda ctx: smr_replica_protocol(
        ctx, meta.get("commands", ()), meta["num_slots"]
    )


def run_smr(
    config: SystemConfig,
    commands: dict[ProcessId, Sequence[object]],
    num_slots: int,
    *,
    seed: int = 0,
    byzantine: dict[ProcessId, Any] | None = None,
    max_ticks: int = 500_000,
    params: RunParameters | None = None,
):
    """Drive a full SMR run over the simulator.

    ``commands[pid]`` is the queue replica ``pid`` proposes from in its
    sender slots.  Returns the
    :class:`~repro.runtime.result.RunResult`; each correct replica's
    decision is its :class:`SmrOutcome`.  ``params`` threads the shared
    run knobs (fault plan with crash/restart faults, observer, recovery
    manager) through the long-lived service — a crashed replica replays
    its WAL, re-derives its log and store, and rejoins mid-slot.
    """
    from repro.protocols.table import run_protocol

    metas = {
        pid: {"num_slots": num_slots, "commands": tuple(commands.get(pid, ()))}
        for pid in config.processes
    }
    return run_protocol(
        "smr", config, metas, seed=seed, byzantine=byzantine,
        params=params or RunParameters(max_ticks=max_ticks),
    )
