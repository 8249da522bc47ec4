"""Crash recovery: write-ahead logs and deterministic replay.

The durable layer that lets a restarting-but-honest replica rejoin a
run instead of being charged against the Byzantine budget ``t``.  See
``docs/recovery.md`` for the WAL format, the rejoin semantics, and what
the paper's model does and does not cover.
"""

from repro.recovery.manager import RecoveryManager, RecoveryStats
from repro.recovery.replay import (
    ReplayCursor,
    ReplayReport,
    factory_from_meta,
    replay_generator,
    replay_history,
    replay_wal,
)
from repro.recovery.wal import (
    FSYNC_POLICIES,
    MAX_RECORD_BYTES,
    WAL_FORMAT_VERSION,
    ProcessHistory,
    ProcessWal,
    WalDamage,
    WalScan,
    load_history,
    load_wal,
    scan_wal,
)

__all__ = [
    "FSYNC_POLICIES",
    "MAX_RECORD_BYTES",
    "WAL_FORMAT_VERSION",
    "ProcessHistory",
    "ProcessWal",
    "RecoveryManager",
    "RecoveryStats",
    "ReplayCursor",
    "ReplayReport",
    "WalDamage",
    "WalScan",
    "factory_from_meta",
    "load_history",
    "load_wal",
    "replay_generator",
    "replay_history",
    "replay_wal",
    "scan_wal",
]
