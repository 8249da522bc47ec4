"""Client workloads for the SMR app: batching and exactly-once commits.

A more realistic replication deployment than
:func:`repro.apps.smr.smr_replica_protocol`'s one-command slots:

* **clients** issue :class:`Command`s (identified by ``(client, seq)``)
  and, as real clients do, submit each command to *several* replicas
  (their home replica might be slow or faulty);
* **replicas** batch pending commands into slot proposals
  (``batch_size`` per slot) and deduplicate: a command already in the
  committed log is dropped from every queue, so duplicated submissions
  commit **exactly once**;
* slots still run adaptive BB with rotating senders, so the whole log
  inherits agreement/validity/adaptivity from the paper's protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Iterable, Sequence

from repro.apps.smr import KeyValueStore, SmrOutcome
from repro.config import ProcessId, RunParameters, SystemConfig
from repro.core.byzantine_broadcast import byzantine_broadcast_protocol
from repro.core.values import BOTTOM
from repro.runtime.context import ProcessContext
from repro.runtime.pool import MessagePool


@dataclass(frozen=True)
class Command:
    """An exactly-once client command."""

    client: str
    seq: int
    op: tuple

    @property
    def key(self) -> tuple:
        return (self.client, self.seq)


@dataclass(frozen=True)
class ClientWorkload:
    """One client's stream of commands and its submission fan-out."""

    client: str
    ops: tuple
    replicas: tuple[ProcessId, ...]
    """Replicas this client submits to (duplicates are expected and
    resolved by commit-time dedup)."""

    def commands(self) -> list[Command]:
        return [
            Command(client=self.client, seq=seq, op=op)
            for seq, op in enumerate(self.ops)
        ]


def assign_queues(
    workloads: Iterable[ClientWorkload], config: SystemConfig
) -> dict[ProcessId, list[Command]]:
    """Build each replica's initial pending queue from the workloads."""
    queues: dict[ProcessId, list[Command]] = {
        pid: [] for pid in config.processes
    }
    for workload in workloads:
        for command in workload.commands():
            for replica in workload.replicas:
                queues[replica].append(command)
    return queues


def batched_smr_replica_protocol(
    ctx: ProcessContext,
    pending: Sequence[Command],
    num_slots: int,
    batch_size: int = 4,
) -> Generator[None, None, SmrOutcome]:
    """SMR with batching and exactly-once dedup.

    Each sender slot proposes up to ``batch_size`` still-uncommitted
    commands from its queue; every replica drops committed commands
    from its own queue, so a command submitted to three replicas still
    commits exactly once.
    """
    with ctx.scope("smr"):
        store = KeyValueStore()
        log: list[Command] = []
        committed: set[tuple] = set()
        queue: list[Command] = list(pending)
        pool = MessagePool()

        for slot in range(num_slots):
            sender = slot % ctx.config.n
            proposal: object = None
            if ctx.pid == sender:
                batch = tuple(
                    c for c in queue if c.key not in committed
                )[:batch_size]
                proposal = batch
            decision = yield from byzantine_broadcast_protocol(
                ctx, sender, proposal, session=f"smr/{slot}", pool=pool
            )
            if decision == BOTTOM or decision is None:
                ctx.emit("smr_empty_slot", slot=slot)
                continue
            if not isinstance(decision, tuple):
                continue  # a Byzantine sender committed garbage: skip
            for item in decision:
                if not isinstance(item, Command) or item.key in committed:
                    continue
                committed.add(item.key)
                log.append(item)
                store.apply(item.op)
            ctx.emit("smr_committed_batch", slot=slot, size=len(decision))
            queue = [c for c in queue if c.key not in committed]

        return SmrOutcome(
            log=tuple(log), state=store.snapshot(), applied=store.applied
        )


def build(meta: dict, **_code):
    """``meta -> factory(ctx)``, the table row's builder."""
    return lambda ctx: batched_smr_replica_protocol(
        ctx,
        meta.get("queue", ()),
        meta["num_slots"],
        batch_size=meta.get("batch_size", 4),
    )


def run_batched_smr(
    config: SystemConfig,
    workloads: Sequence[ClientWorkload],
    num_slots: int,
    *,
    batch_size: int = 4,
    seed: int = 0,
    byzantine: dict[ProcessId, Any] | None = None,
    max_ticks: int = 500_000,
):
    """Drive a batched, client-fed SMR run over the simulator."""
    from repro.protocols.table import run_protocol

    metas = {
        pid: {
            "num_slots": num_slots,
            "batch_size": batch_size,
            "queue": tuple(queue),
        }
        for pid, queue in assign_queues(workloads, config).items()
    }
    return run_protocol(
        "batched_smr", config, metas, seed=seed, byzantine=byzantine,
        params=RunParameters(max_ticks=max_ticks),
    )
