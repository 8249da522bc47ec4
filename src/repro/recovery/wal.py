"""The write-ahead log: CRC-framed, fsync-batched, input-replayed.

One :class:`ProcessWal` persists everything needed to reconstruct a
protocol instance's state machine after a crash:

* a ``meta`` record — deployment parameters (``n``, ``t``, seed, pid)
  plus whatever the run driver knows about the protocol (name, input
  value, phase count), so an offline tool can rebuild the factory;
* per-tick ``inbox`` records — the envelopes delivered to the process,
  written *before* the protocol generator consumes them (that is the
  "write-ahead": a crash mid-round loses at most the round the process
  never acted on);
* per-tick ``sends`` records — the sent-message highwater marks.
  Replay re-executes the generator with sends suppressed and checks its
  send counts against these marks; a mismatch means the replayed state
  machine is **not** the one that crashed, and recovery refuses it;
* ``event`` records — protocol-state transitions (phase entries,
  acquired values and certificates, decisions) mirrored from
  :meth:`~repro.runtime.context.ProcessContext.emit`;
* ``restart`` records — rejoin markers bounding each down window, so a
  later replay knows which ticks the process never executed live.

Frame format
------------

Every record is one frame: an 8-byte header ``>II`` (body length,
CRC32 of the body) followed by the pickled body.  Pickle is safe here
for the same reason it is in the TCP transport: every endpoint is this
same trusted process; a production deployment would swap the codec.

Damage policy (the part tests/test_wal.py hammers):

* a **torn tail** — EOF in the middle of the final frame — is the
  expected signature of a crash during an append.  Scans stop at the
  last complete record and report the damage; loading tolerates it by
  default (``strict=False``).
* a **CRC mismatch** or an impossible length on a *complete* frame is
  silent corruption (bit rot, a torn write that landed mid-file).  That
  is never safe to read past — the scan stops at the last valid record
  and :func:`load_wal` raises :class:`~repro.errors.RecoveryError`
  rather than load corrupt state.

A process's durable state is this one file, ``<stem>.wal``, and
:func:`load_history` is its one reader.
"""

from __future__ import annotations

import io
import pickle
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

from repro.errors import RecoveryError

_HEADER = struct.Struct(">II")

WAL_FORMAT_VERSION = 1

MAX_RECORD_BYTES = 64 * 1024 * 1024
"""Upper bound on one frame's body; a length beyond it is corruption,
not data (the largest legitimate record is one tick's inbox)."""

FSYNC_POLICIES = ("always", "batch", "never")
"""``always`` — fsync every append (durability per record, slowest);
``batch`` — fsync once per :meth:`ProcessWal.flush` (the runtimes flush
at tick boundaries, so one fsync per round; the default);
``never`` — OS-buffered writes only (fastest; a host crash may lose the
tail, a *process* crash does not)."""


def _frame(body: bytes) -> bytes:
    return _HEADER.pack(len(body), zlib.crc32(body)) + body


def _encode(record: tuple) -> bytes:
    return _frame(pickle.dumps(record))


@dataclass(frozen=True)
class WalDamage:
    """Where and how a WAL stopped being readable."""

    kind: str
    """``torn-tail`` (EOF mid-frame: the crash signature, tolerated) or
    ``crc-mismatch`` / ``bad-length`` (silent corruption, never read past)."""
    offset: int
    """Byte offset of the first unreadable frame."""
    detail: str

    @property
    def tolerable(self) -> bool:
        return self.kind == "torn-tail"


@dataclass
class WalScan:
    """Every record a WAL yields before its first damage (if any)."""

    records: list[tuple] = field(default_factory=list)
    damage: WalDamage | None = None
    bytes_read: int = 0


def scan_wal(path: str | Path) -> WalScan:
    """Read records up to the first damaged frame; never raises.

    The low-level surface behind ``repro recover inspect`` — callers
    that must not load corrupt state use :func:`load_wal` instead.
    """
    scan = WalScan()
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        scan.damage = WalDamage("bad-length", 0, f"unreadable file: {exc}")
        return scan
    offset = 0
    total = len(data)
    while offset < total:
        if offset + _HEADER.size > total:
            scan.damage = WalDamage(
                "torn-tail", offset,
                f"EOF inside a frame header at byte {offset}",
            )
            return scan
        length, crc = _HEADER.unpack_from(data, offset)
        if length > MAX_RECORD_BYTES:
            scan.damage = WalDamage(
                "bad-length", offset,
                f"frame at byte {offset} claims {length} bytes "
                f"(> {MAX_RECORD_BYTES}): corrupt header",
            )
            return scan
        body_start = offset + _HEADER.size
        if body_start + length > total:
            scan.damage = WalDamage(
                "torn-tail", offset,
                f"EOF inside the frame at byte {offset} "
                f"({total - body_start} of {length} body bytes present)",
            )
            return scan
        body = data[body_start : body_start + length]
        if zlib.crc32(body) != crc:
            scan.damage = WalDamage(
                "crc-mismatch", offset,
                f"frame at byte {offset} fails its CRC32 check",
            )
            return scan
        try:
            record = pickle.loads(body)
        except Exception as exc:
            scan.damage = WalDamage(
                "crc-mismatch", offset,
                f"frame at byte {offset} passes CRC but does not decode: {exc}",
            )
            return scan
        scan.records.append(record)
        offset = body_start + length
        scan.bytes_read = offset
    return scan


def load_wal(path: str | Path, *, strict: bool = False) -> WalScan:
    """Scan a WAL, refusing to pass over silent corruption.

    A torn tail (the normal crash signature) is tolerated unless
    ``strict``; every other damage kind raises
    :class:`~repro.errors.RecoveryError` naming the offset and how many
    records were recovered before it — replay stops at the last valid
    record instead of loading corrupt state.
    """
    scan = scan_wal(path)
    damage = scan.damage
    if damage is not None and (strict or not damage.tolerable):
        raise RecoveryError(
            f"{path}: {damage.kind} at byte {damage.offset} "
            f"({damage.detail}); {len(scan.records)} valid record(s) "
            f"precede the damage — refusing to load past it"
        )
    return scan


# ----------------------------------------------------------------------
# History: the replayable view of a WAL
# ----------------------------------------------------------------------


@dataclass
class ProcessHistory:
    """Everything one process's durable state says about its past."""

    meta: dict[str, Any] = field(default_factory=dict)
    inboxes: dict[int, list] = field(default_factory=dict)
    """Tick -> envelopes delivered that tick.  Missing tick = empty inbox."""
    sends: dict[int, int] = field(default_factory=dict)
    """Tick -> sent-message highwater mark (sends made during that tick)."""
    events: list[tuple] = field(default_factory=list)
    """``(tick, scope, name, data)`` protocol-state transitions."""
    down_windows: list[tuple[int, int]] = field(default_factory=list)
    """``[crash_tick, restart_tick)`` intervals the process never ran."""
    through_tick: int = -1
    """Highest tick any record covers; replay targets ``through_tick + 1``."""
    damage: WalDamage | None = None

    def total_sends(self) -> int:
        return sum(self.sends.values())

    def was_down(self, tick: int) -> bool:
        return any(lo <= tick < hi for lo, hi in self.down_windows)

    def absorb(self, records: Iterable[tuple]) -> None:
        """Fold WAL records (in append order) into this history."""
        for record in records:
            kind = record[0]
            if kind == "meta":
                self.meta.update(record[1])
            elif kind == "inbox":
                _, tick, envelopes = record
                self.inboxes[tick] = list(envelopes)
                self.through_tick = max(self.through_tick, tick)
            elif kind == "sends":
                _, tick, count = record
                self.sends[tick] = self.sends.get(tick, 0) + count
                self.through_tick = max(self.through_tick, tick)
            elif kind == "event":
                _, tick, scope, name, data = record
                self.events.append((tick, scope, name, data))
                self.through_tick = max(self.through_tick, tick)
            elif kind == "restart":
                _, restart_tick, down_since = record
                self.down_windows.append((down_since, restart_tick))
            # Unknown kinds are skipped, not fatal: a newer writer may
            # add record types an older reader can ignore.


# ----------------------------------------------------------------------
# The per-process writer
# ----------------------------------------------------------------------


class ProcessWal:
    """Durable state of one process: ``<stem>.wal``.

    Appends buffer in memory and land on disk at :meth:`flush` (the
    runtimes flush once per tick); the ``fsync`` policy decides how hard
    each flush pushes toward the platters.
    """

    def __init__(self, stem: str | Path, *, fsync: str = "batch") -> None:
        if fsync not in FSYNC_POLICIES:
            raise RecoveryError(
                f"fsync policy must be one of {FSYNC_POLICIES}, got {fsync!r}"
            )
        self.stem = Path(stem)
        self.wal_path = self.stem.with_suffix(".wal")
        self.fsync = fsync
        self._buffer = io.BytesIO()
        self._fh = None

    # -- appending ------------------------------------------------------

    def _append(self, record: tuple) -> None:
        framed = _encode(record)
        self._buffer.write(framed)
        if self.fsync == "always":
            self.flush()

    def log_meta(self, meta: dict[str, Any]) -> None:
        self._append(("meta", dict(meta, wal_format=WAL_FORMAT_VERSION)))

    def log_inbox(self, tick: int, envelopes: list) -> None:
        if envelopes:
            self._append(("inbox", tick, list(envelopes)))

    def log_sends(self, tick: int, count: int) -> None:
        if count:
            self._append(("sends", tick, count))

    def log_event(self, tick: int, scope: str, name: str, data: tuple) -> None:
        self._append(("event", tick, scope, name, data))

    def log_restart(self, restart_tick: int, down_since: int) -> None:
        self._append(("restart", restart_tick, down_since))

    def flush(self) -> None:
        """Push buffered frames to the file (fsync per policy)."""
        payload = self._buffer.getvalue()
        if not payload:
            return
        if self._fh is None:
            self.wal_path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.wal_path, "ab")
        self._fh.write(payload)
        self._fh.flush()
        if self.fsync != "never":
            try:
                import os

                os.fsync(self._fh.fileno())
            except OSError:  # pragma: no cover - fsync-less filesystems
                pass
        self._buffer = io.BytesIO()

    def drop_unflushed(self) -> int:
        """Discard buffered frames that never reached disk.

        Models the crash itself: whatever was appended since the last
        :meth:`flush` dies with the process.  Returns the byte count
        dropped so callers can report how much the crash cost."""
        lost = self._buffer.getbuffer().nbytes
        self._buffer = io.BytesIO()
        return lost

    def close(self) -> None:
        self.flush()
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    # -- loading --------------------------------------------------------

    def load(self, *, strict: bool = False) -> ProcessHistory:
        return load_history(self.stem, strict=strict)

    def wal_size(self) -> int:
        """Durable bytes currently on disk."""
        try:
            return self.wal_path.stat().st_size
        except OSError:
            return 0


def load_history(stem: str | Path, *, strict: bool = False) -> ProcessHistory:
    """Rebuild a :class:`ProcessHistory` from ``<stem>.wal``.

    Refuses a WAL whose ``meta`` carries ``snapshot_through``: an older
    snapshotting writer truncated it, so on its own it lacks every tick
    up to that one and would replay a history missing its start.
    """
    stem = Path(stem)
    wal_path = stem.with_suffix(".wal")
    if not wal_path.exists():
        raise RecoveryError(f"no WAL found at {wal_path}")
    scan = load_wal(wal_path, strict=strict)
    history = ProcessHistory(damage=scan.damage)
    history.absorb(scan.records)
    through = history.meta.get("snapshot_through")
    if through is not None:
        raise RecoveryError(
            f"{stem}: WAL was compacted by a snapshotting writer through "
            f"tick {through}; ticks up to it are not in the WAL, so "
            f"refusing to replay a partial history"
        )
    return history
