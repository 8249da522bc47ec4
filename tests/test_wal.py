"""Unit tests for the write-ahead log layer (:mod:`repro.recovery.wal`).

Covers CRC framing, fsync policies, buffered-append/flush semantics,
``drop_unflushed`` (the crash itself), the refusal of a WAL an older
snapshotting writer truncated, and the damage policy the recovery
subsystem promises: a *torn tail* — the signature of a crash
mid-append — is tolerated and replay resumes from the last valid record, while silent corruption of a complete frame
(bit flips, bogus lengths) raises :class:`~repro.errors.RecoveryError`
naming the offset instead of loading corrupt state.
"""

from __future__ import annotations

import pickle
import struct

import pytest

from repro.errors import RecoveryError
from repro.recovery import (
    ProcessHistory,
    ProcessWal,
    load_history,
    load_wal,
    replay_wal,
    scan_wal,
)

_HEADER = struct.Struct(">II")


@pytest.fixture
def wals():
    """Track every ProcessWal a test opens and close them at teardown
    (the suite escalates ResourceWarning to an error)."""
    opened: list[ProcessWal] = []
    yield opened
    for wal in opened:
        wal.close()


def track(wals, wal: ProcessWal) -> ProcessWal:
    wals.append(wal)
    return wal


def make_wal(wals, tmp_path, *, fsync="batch") -> ProcessWal:
    return track(wals, ProcessWal(tmp_path / "p0", fsync=fsync))


def populated(wals, tmp_path, *, fsync="batch") -> ProcessWal:
    wal = make_wal(wals, tmp_path, fsync=fsync)
    wal.log_meta({"n": 4, "t": 1, "seed": 0, "pid": 0, "protocol": "weak_ba"})
    wal.log_inbox(0, ["e0", "e1"])
    wal.log_sends(0, 3)
    wal.log_inbox(1, ["e2"])
    wal.log_sends(1, 1)
    wal.flush()
    return wal


class TestFraming:
    def test_roundtrip(self, wals, tmp_path):
        wal = populated(wals, tmp_path)
        history = wal.load()
        assert history.meta["protocol"] == "weak_ba"
        assert history.inboxes == {0: ["e0", "e1"], 1: ["e2"]}
        assert history.sends == {0: 3, 1: 1}
        assert history.through_tick == 1
        assert history.total_sends() == 4
        assert history.damage is None

    def test_empty_inbox_and_zero_sends_not_logged(self, wals, tmp_path):
        wal = make_wal(wals, tmp_path)
        wal.log_meta({"pid": 0})
        wal.log_inbox(0, [])
        wal.log_sends(0, 0)
        wal.flush()
        scan = scan_wal(wal.wal_path)
        assert [r[0] for r in scan.records] == ["meta"]

    def test_meta_merges_across_records(self, wals, tmp_path):
        wal = make_wal(wals, tmp_path)
        wal.log_meta({"n": 4, "t": 1})
        wal.log_meta({"input": "v"})
        wal.flush()
        history = wal.load()
        assert history.meta["n"] == 4
        assert history.meta["input"] == "v"

    def test_unknown_record_kind_is_skipped(self, wals, tmp_path):
        history = ProcessHistory()
        history.absorb(
            [("meta", {"pid": 3}), ("hologram", 1, 2, 3), ("sends", 2, 5)]
        )
        assert history.meta["pid"] == 3
        assert history.sends == {2: 5}

    def test_missing_stem_raises(self, wals, tmp_path):
        with pytest.raises(RecoveryError, match="no WAL found at"):
            load_history(tmp_path / "absent")


class TestFsyncAndBuffering:
    def test_batch_policy_buffers_until_flush(self, wals, tmp_path):
        wal = make_wal(wals, tmp_path, fsync="batch")
        wal.log_meta({"pid": 0})
        assert not wal.wal_path.exists()
        wal.flush()
        assert wal.wal_path.exists()

    def test_always_policy_lands_each_record(self, wals, tmp_path):
        wal = make_wal(wals, tmp_path, fsync="always")
        wal.log_meta({"pid": 0})
        assert wal.wal_path.exists()
        size_after_meta = wal.wal_path.stat().st_size
        wal.log_sends(0, 1)
        assert wal.wal_path.stat().st_size > size_after_meta

    def test_never_policy_still_writes(self, wals, tmp_path):
        wal = make_wal(wals, tmp_path, fsync="never")
        wal.log_meta({"pid": 0})
        wal.flush()
        assert len(wal.load().meta) > 0

    def test_bad_policy_rejected(self, wals, tmp_path):
        with pytest.raises(RecoveryError, match="fsync policy"):
            ProcessWal(tmp_path / "p0", fsync="usually")

    def test_drop_unflushed_loses_only_the_tail(self, wals, tmp_path):
        wal = make_wal(wals, tmp_path)
        wal.log_meta({"pid": 0})
        wal.log_sends(0, 2)
        wal.flush()
        wal.log_sends(1, 9)  # the crash happens before this flushes
        lost = wal.drop_unflushed()
        assert lost > 0
        wal.flush()
        history = wal.load()
        assert history.sends == {0: 2}
        assert wal.drop_unflushed() == 0  # nothing buffered now


class TestCompactedWal:
    """A WAL an older snapshotting writer truncated starts with a
    ``meta`` carrying ``snapshot_through``; its first ticks lived in a
    sidecar nothing reads any more, so loading it must fail loudly."""

    def compacted(self, wals, tmp_path) -> ProcessWal:
        wal = make_wal(wals, tmp_path)
        wal.log_meta({
            "n": 4, "t": 1, "seed": 0, "pid": 0, "protocol": "weak_ba",
            "snapshot_through": 7,
        })
        wal.log_inbox(8, ["e8"])
        wal.log_sends(8, 1)
        wal.flush()
        return wal

    def test_load_history_refuses_and_names_stem_and_tick(self, wals, tmp_path):
        wal = self.compacted(wals, tmp_path)
        with pytest.raises(RecoveryError) as excinfo:
            load_history(wal.stem)
        message = str(excinfo.value)
        assert str(wal.stem) in message
        assert "tick 7" in message

    def test_replay_wal_refuses(self, wals, tmp_path):
        wal = self.compacted(wals, tmp_path)
        with pytest.raises(RecoveryError, match=str(wal.stem)):
            replay_wal(wal.stem)


class TestDamagePolicy:
    """Satellite: torn writes are tolerated, silent corruption is not."""

    def test_torn_tail_truncation_tolerated(self, wals, tmp_path):
        wal = populated(wals, tmp_path)
        data = wal.wal_path.read_bytes()
        # Truncate mid-frame: the classic crash-during-append signature.
        wal.wal_path.write_bytes(data[: len(data) - 7])
        history = load_history(wal.stem)
        assert history.damage is not None
        assert history.damage.kind == "torn-tail"
        assert history.damage.tolerable
        # Everything before the tear is intact; the torn record is gone.
        assert history.sends[0] == 3
        assert 1 not in history.sends

    def test_torn_header_tolerated(self, wals, tmp_path):
        wal = populated(wals, tmp_path)
        data = wal.wal_path.read_bytes()
        wal.wal_path.write_bytes(data + b"\x00\x01")  # partial next header
        scan = scan_wal(wal.wal_path)
        assert scan.damage is not None and scan.damage.kind == "torn-tail"
        assert len(scan.records) == 5

    def test_strict_mode_rejects_torn_tail(self, wals, tmp_path):
        wal = populated(wals, tmp_path)
        data = wal.wal_path.read_bytes()
        wal.wal_path.write_bytes(data[: len(data) - 7])
        with pytest.raises(RecoveryError, match="torn-tail"):
            load_wal(wal.wal_path, strict=True)

    def test_bit_flip_in_body_is_fatal_and_names_offset(self, wals, tmp_path):
        wal = populated(wals, tmp_path)
        data = bytearray(wal.wal_path.read_bytes())
        # Flip one bit inside the FIRST record's body: a complete frame
        # whose CRC no longer matches — silent corruption, not a crash.
        data[_HEADER.size + 2] ^= 0x40
        wal.wal_path.write_bytes(bytes(data))
        with pytest.raises(RecoveryError) as excinfo:
            load_history(wal.stem)
        message = str(excinfo.value)
        assert "crc-mismatch" in message
        assert "byte 0" in message  # the offset of the damaged frame
        assert "refusing to load past it" in message

    def test_bit_flip_scan_stops_at_last_valid_record(self, wals, tmp_path):
        wal = populated(wals, tmp_path)
        data = bytearray(wal.wal_path.read_bytes())
        # Corrupt the THIRD frame's body; the first two must survive.
        offset = 0
        for _ in range(2):
            length, _crc = _HEADER.unpack_from(data, offset)
            offset += _HEADER.size + length
        data[offset + _HEADER.size + 1] ^= 0x01
        wal.wal_path.write_bytes(bytes(data))
        scan = scan_wal(wal.wal_path)
        assert len(scan.records) == 2
        assert scan.damage is not None
        assert scan.damage.kind == "crc-mismatch"
        assert scan.damage.offset == offset
        assert not scan.damage.tolerable

    def test_bogus_length_header_is_fatal(self, wals, tmp_path):
        wal = populated(wals, tmp_path)
        data = bytearray(wal.wal_path.read_bytes())
        body = pickle.dumps(("sends", 9, 9))
        data.extend(_HEADER.pack(1 << 31, 0) + body)
        wal.wal_path.write_bytes(bytes(data))
        scan = scan_wal(wal.wal_path)
        assert scan.damage is not None
        assert scan.damage.kind == "bad-length"
        assert not scan.damage.tolerable
        with pytest.raises(RecoveryError, match="bad-length"):
            load_history(wal.stem)

    def test_valid_record_count_reported(self, wals, tmp_path):
        wal = populated(wals, tmp_path)
        data = bytearray(wal.wal_path.read_bytes())
        data[_HEADER.size + 2] ^= 0x40
        wal.wal_path.write_bytes(bytes(data))
        with pytest.raises(RecoveryError, match=r"0 valid record\(s\)"):
            load_wal(wal.wal_path)
