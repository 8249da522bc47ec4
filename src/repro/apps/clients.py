"""Client workloads for the SMR app: what replicas batch and dedup.

A more realistic replication deployment than
:func:`repro.apps.smr.smr_replica_protocol`'s one-command slots:
**clients** issue :class:`Command`s (identified by ``(client, seq)``)
and, as real clients do, submit each command to *several* replicas
(their home replica might be slow or faulty).  The replica that batches
them into slot proposals and commits each **exactly once** is
:func:`repro.apps.pipelined.pipelined_smr_replica_protocol`; at
``window=1`` it is the sequential batched log (the ``batched_smr``
table row).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.config import ProcessId, SystemConfig


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
