"""The per-run recovery manager: one WAL per process, shared policy.

A :class:`RecoveryManager` is handed to a runtime (the tick scheduler
via :class:`~repro.config.RunParameters`, the asyncio runner directly)
and owns the durable side of every correct process in the run:

* it lazily opens one :class:`~repro.recovery.wal.ProcessWal` per pid
  under ``wal_dir`` (``p<pid>.wal``);
* the runtimes call the ``on_*`` hooks — deliveries are logged *before*
  the protocol consumes them, send highwater marks and state-transition
  events after;
* :meth:`end_tick` flushes every dirty WAL once per round (that is the
  fsync batch);
* :meth:`load` / :meth:`recover` rebuild a crashed process — see
  :mod:`repro.recovery.replay` for the replay semantics.

A manager instance is bound to one run: reusing it across runs would
interleave two histories in one log.  Point a second run at the same
``wal_dir`` only through a fresh manager after the first closed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.config import ProcessId
from repro.recovery.wal import FSYNC_POLICIES, ProcessHistory, ProcessWal
from repro.errors import RecoveryError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.recovery.replay import ReplayReport


@dataclass
class RecoveryStats:
    """What the recovery layer did during one run (observer fodder)."""

    crashes: int = 0
    restarts: int = 0
    replayed_ticks: int = 0
    replay_seconds: float = 0.0
    reports: list["ReplayReport"] = field(default_factory=list)


class RecoveryManager:
    """Durability policy + per-process WALs for one run."""

    def __init__(self, wal_dir: str | Path, *, fsync: str = "batch") -> None:
        if fsync not in FSYNC_POLICIES:
            raise RecoveryError(
                f"fsync policy must be one of {FSYNC_POLICIES}, got {fsync!r}"
            )
        self.wal_dir = Path(wal_dir)
        self.fsync = fsync
        self.stats = RecoveryStats()
        self._wals: dict[ProcessId, ProcessWal] = {}
        self._meta: dict[ProcessId, dict[str, Any]] = {}
        self._shared_meta: dict[str, Any] = {}
        self._dirty: set[ProcessId] = set()

    # ------------------------------------------------------------------
    # Metadata
    # ------------------------------------------------------------------

    def describe(self, **meta: Any) -> None:
        """Record run-wide metadata (protocol name, inputs, seed ...)
        into every process's WAL.  Call before the run starts; offline
        replay (`repro recover replay`) needs at least ``protocol`` and
        the deployment parameters to rebuild the factory."""
        self._shared_meta.update(meta)

    def describe_process(self, pid: ProcessId, **meta: Any) -> None:
        """Per-process metadata (e.g. this replica's input value)."""
        self._meta.setdefault(pid, {}).update(meta)

    def wal_for(self, pid: ProcessId) -> ProcessWal:
        wal = self._wals.get(pid)
        if wal is None:
            wal = ProcessWal(self.wal_dir / f"p{pid}", fsync=self.fsync)
            self._wals[pid] = wal
            wal.log_meta(self._full_meta(pid))
            self._dirty.add(pid)
        return wal

    def _full_meta(self, pid: ProcessId) -> dict[str, Any]:
        meta = {"pid": pid}
        meta.update(self._shared_meta)
        meta.update(self._meta.get(pid, {}))
        return meta

    # ------------------------------------------------------------------
    # Runtime hooks
    # ------------------------------------------------------------------

    def on_inbox(self, pid: ProcessId, tick: int, envelopes: list) -> None:
        if envelopes:
            self.wal_for(pid).log_inbox(tick, envelopes)
            self._dirty.add(pid)

    def on_send(self, pid: ProcessId, tick: int, count: int) -> None:
        """One billed multicast of ``count`` copies: one ``sends`` frame.
        Highwater marks accumulate per (pid, tick); absorb() re-sums a
        tick's frames."""
        self.wal_for(pid).log_sends(tick, count)
        self._dirty.add(pid)

    def on_event(
        self, pid: ProcessId, tick: int, scope: str, name: str, data: tuple
    ) -> None:
        self.wal_for(pid).log_event(tick, scope, name, data)
        self._dirty.add(pid)

    def on_crash(self, pid: ProcessId, tick: int) -> None:
        """A process went down; its buffered-but-unflushed records are
        lost with it (exactly what write-ahead semantics promise: only
        the unflushed tail can vanish)."""
        self.stats.crashes += 1
        wal = self._wals.get(pid)
        if wal is not None:
            wal.drop_unflushed()

    def on_restart(self, pid: ProcessId, tick: int, down_since: int) -> None:
        self.stats.restarts += 1
        self.wal_for(pid).log_restart(tick, down_since)
        self.flush(pid)

    def note_replay(self, report: "ReplayReport") -> None:
        self.stats.replayed_ticks += report.ticks_replayed
        self.stats.replay_seconds += report.duration_seconds
        self.stats.reports.append(report)

    # ------------------------------------------------------------------
    # Flush cadence
    # ------------------------------------------------------------------

    def flush(self, pid: ProcessId) -> None:
        wal = self._wals.get(pid)
        if wal is not None:
            wal.flush()
        self._dirty.discard(pid)

    def end_tick(self) -> None:
        """Flush every dirty WAL (one fsync batch per round)."""
        for pid in sorted(self._dirty):
            self._wals[pid].flush()
        self._dirty.clear()

    def close(self) -> None:
        for pid in sorted(self._wals):
            self._wals[pid].close()
        self._dirty.clear()

    # ------------------------------------------------------------------
    # Recovery-side reads
    # ------------------------------------------------------------------

    def load(self, pid: ProcessId, *, strict: bool = False) -> ProcessHistory:
        """Read ``pid``'s durable history back **from disk** — recovery
        must trust only what survived, not in-memory mirrors."""
        self.flush(pid)
        return self.wal_for(pid).load(strict=strict)

    def wal_bytes(self) -> int:
        """Total durable bytes across every process."""
        return sum(wal.wal_size() for wal in self._wals.values())

    def pids(self) -> list[ProcessId]:
        return sorted(self._wals)
