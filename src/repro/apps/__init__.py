"""Applications built on the paper's primitives.

:mod:`repro.apps.smr` — a total-order replicated state machine driven
by repeated adaptive Byzantine Broadcast instances, the "key component
in many distributed systems" use case the paper's introduction
motivates.
"""

from repro.apps.clients import ClientWorkload, Command
from repro.apps.pipelined import (
    pipelined_smr_replica_protocol,
    run_pipelined_smr,
)
from repro.apps.smr import KeyValueStore, run_smr, smr_replica_protocol

__all__ = [
    "KeyValueStore",
    "run_smr",
    "smr_replica_protocol",
    "Command",
    "ClientWorkload",
    "pipelined_smr_replica_protocol",
    "run_pipelined_smr",
]
