"""The crash-recovery acceptance suite (ISSUE acceptance criterion).

A weak-BA run with a scheduled crash/restart of one correct process must
recover that process from its WAL and decide the same value — and the
run's message bill must be exactly what deterministic replay of the WALs
predicts.  The same loop is exercised over all three runtimes (tick
scheduler, asyncio, localhost TCP), plus the guardrails: crashes demand
a recovery manager, model-checked runs refuse one, and a WAL whose
highwater marks disagree with the replayed machine is rejected loudly.
"""

from __future__ import annotations

import asyncio
import copy
import json

import pytest

from repro.asyncnet import run_async
from repro.asyncnet.tcp import run_over_tcp
from repro.config import RunParameters, SystemConfig
from repro.core.validity import ExternalValidity
from repro.core.weak_ba import run_weak_ba, weak_ba_protocol
from repro.errors import RecoveryError, SchedulerError
from repro.faults import FaultPlan, ProcessCrash
from repro.obs import Observer
from repro.recovery import (
    ProcessWal,
    RecoveryManager,
    load_history,
    replay_wal,
    scan_wal,
)
from repro.recovery.wal import _encode
from repro.verify.checker import verify_under_plan

CONFIG = SystemConfig(n=4, t=1)
CRASH = ProcessCrash(pid=2, at_tick=3, restart_tick=6)
PLAN = FaultPlan(crashes=(CRASH,))
SEED = 7


def validity_factory(suite, config):
    return ExternalValidity(lambda v: isinstance(v, str))


def run_with_crash(wal_dir, *, observer=None, seed=SEED, plan=PLAN):
    recovery = RecoveryManager(wal_dir)
    inputs = {pid: "v" for pid in CONFIG.processes}
    result = run_weak_ba(
        CONFIG,
        inputs,
        validity_factory,
        seed=seed,
        params=RunParameters(
            seed=seed, fault_plan=plan, observer=observer, recovery=recovery
        ),
    )
    return result, recovery


class TestOneRecordPerFact:
    """Each fact of a run is written once, by the component that owns
    it: the WAL holds what replay reads, the trace holds events, and the
    observer logs the trace and keeps only what no other record has."""

    # Duplicates and sub-delta delays give the observer verdicts to count.
    NOISY = FaultPlan(
        seed=3, crashes=(CRASH,), duplicate_rate=0.2, delay_rate=0.2
    )

    def test_crash_run_wals_hold_no_event_record(self, tmp_path):
        run_with_crash(tmp_path)
        for pid in CONFIG.processes:
            scan = scan_wal(tmp_path / f"p{pid}.wal")
            assert scan.damage is None
            kinds = {record[0] for record in scan.records}
            assert kinds <= {"meta", "inbox", "sends", "restart"}, pid
            assert ("restart" in kinds) == (pid == CRASH.pid)

    def test_offline_replay_regenerates_every_live_event(self, tmp_path):
        """The WAL needs no event mirror: replaying a process that never
        crashed re-emits exactly the events its live run traced."""
        result, _ = run_with_crash(tmp_path)
        for pid in CONFIG.processes:
            if pid == CRASH.pid:
                continue
            report = replay_wal(tmp_path / f"p{pid}")
            assert report.decision == result.decisions[pid]
            live = sum(1 for _ in result.trace.by_pid(pid))
            assert live > 0
            assert report.events_replayed == live, pid

    def test_offline_replay_runs_a_long_silent_tail_to_the_decision(
        self, tmp_path
    ):
        """Every process decides in phase 1, then sits through 199 more
        phases whose silent ticks the WAL never records; offline replay
        still drives each one to its live decision."""
        config = SystemConfig(n=5, t=1)
        result = run_weak_ba(
            config,
            {pid: "v" for pid in config.processes},
            validity_factory,
            params=RunParameters(
                num_phases=200, recovery=RecoveryManager(tmp_path)
            ),
        )
        for pid in config.processes:
            stem = tmp_path / f"p{pid}"
            assert result.halted_at[pid] > load_history(stem).through_tick + 1024
            report = replay_wal(stem)
            assert report.decided, pid
            assert report.decision == result.decisions[pid] == "v"
            assert report.ticks_replayed == result.halted_at[pid] + 1

    def test_wal_with_parent_event_frames_still_replays(self, tmp_path):
        """A WAL written when every emit was mirrored into an ``event``
        frame loads to the same history and replays to the same
        decision."""
        result, _ = run_with_crash(tmp_path)
        stem = tmp_path / f"p{CRASH.pid}"
        records = scan_wal(stem.with_suffix(".wal")).records
        events = [
            ("event", e.tick, e.scope, e.name, e.data)
            for e in result.trace.by_pid(CRASH.pid)
            if e.scope != "faults"
        ]
        assert events
        meta, rest = records[0], records[1:]
        merged = sorted(rest + events, key=lambda record: record[1])
        old = tmp_path / "parent" / f"p{CRASH.pid}"
        old.parent.mkdir()
        old.with_suffix(".wal").write_bytes(
            b"".join(_encode(record) for record in [meta, *merged])
        )
        kinds = [record[0] for record in scan_wal(old.with_suffix(".wal")).records]
        assert kinds.count("event") == len(events)
        assert load_history(old) == load_history(stem)
        report = replay_wal(old)
        assert report.decided
        assert report.decision == result.decisions[CRASH.pid]

    def test_wal_with_five_field_envelopes_still_replays(self, tmp_path):
        """A WAL whose ``inbox`` frames pickled each envelope with its
        ``receiver`` (before envelopes dropped it) loads to the same
        history and replays to the same decision."""
        result, _ = run_with_crash(tmp_path)
        stem = tmp_path / f"p{CRASH.pid}"

        def legacy(envelope):
            old = copy.copy(envelope)
            old.__dict__["receiver"] = CRASH.pid
            return old

        records = [
            ("inbox", r[1], [legacy(e) for e in r[2]]) if r[0] == "inbox" else r
            for r in scan_wal(stem.with_suffix(".wal")).records
        ]
        old = tmp_path / "parent" / f"p{CRASH.pid}"
        old.parent.mkdir()
        old.with_suffix(".wal").write_bytes(
            b"".join(_encode(record) for record in records)
        )
        assert old.with_suffix(".wal").read_bytes().count(b"receiver") > 0
        assert load_history(old) == load_history(stem)
        report = replay_wal(old)
        assert report.decided
        assert report.decision == result.decisions[CRASH.pid]

    def test_observer_logs_each_trace_event_once(self, tmp_path):
        observer = Observer()
        result, _ = run_with_crash(tmp_path, observer=observer, plan=self.NOISY)
        assert result.recovered == frozenset({CRASH.pid})
        logged = [
            (e["tick"], e["pid"], e["scope"], e["name"], e["data"])
            for e in observer.events.events
        ]
        traced = [
            (e.tick, e.pid, e.scope, e.name, json.loads(json.dumps(dict(e.data))))
            for e in result.trace.events
        ]
        assert logged == traced
        assert {"crashed", "recovered"} <= {name for *_, name, _ in logged}
        # Stamped by the observer's clock as emitted: lockstep ticks.
        assert all(e["at"] == e["tick"] for e in observer.events.events)

    def test_observer_restates_no_ledger_trace_or_recovery_fact(self, tmp_path):
        observer = Observer()
        run_with_crash(tmp_path, observer=observer, plan=self.NOISY)
        metrics = observer.snapshot()["metrics"]
        names = [*metrics["counters"], *metrics["gauges"]]
        assert any(name.startswith("faults.") for name in names)
        restated = ("words.", "messages.", "signatures.", "recovery.", "sim.")
        assert [name for name in names if name.startswith(restated)] == []


class TestTickWorldAcceptance:
    def test_crashed_process_recovers_and_agrees(self, tmp_path):
        result, recovery = run_with_crash(tmp_path)
        assert result.unanimous_decision() == "v"
        assert result.recovered == frozenset({2})
        assert result.corrupted == frozenset()  # crashed-but-honest
        assert recovery.stats.crashes == 1
        assert recovery.stats.restarts == 1
        # The rejoin replayed exactly the pre-restart prefix.
        (report,) = recovery.stats.reports
        assert report.pid == 2
        assert report.resumed_at_tick == CRASH.restart_tick
        assert report.ticks_replayed == CRASH.restart_tick
        assert report.down_windows == [(CRASH.at_tick, CRASH.restart_tick)]

    def test_crashed_pid_counts_toward_effective_f(self, tmp_path):
        result, _ = run_with_crash(tmp_path)
        assert PLAN.faulty == frozenset({2})
        report = verify_under_plan(result, PLAN)
        assert report.ok, report.summary()

    def test_word_bill_matches_replayed_wals(self, tmp_path):
        """The acceptance bar: the run's message bill and decision are
        exactly what offline replay of the per-process WALs predicts."""
        result, recovery = run_with_crash(tmp_path)
        replayed_sends = 0
        for pid in CONFIG.processes:
            report = replay_wal(tmp_path / f"p{pid}")
            assert report.decided, f"p{pid} did not decide within its WAL"
            assert report.decision == result.decisions[pid]
            # Down-window sends are phantoms: the replayed machine
            # attempts them, but the crashed process never did.
            replayed_sends += report.sends_replayed - report.phantom_sends
        assert replayed_sends == result.ledger.correct_messages

    def test_wal_highwater_marks_match_ledger(self, tmp_path):
        result, _ = run_with_crash(tmp_path)
        for pid in CONFIG.processes:
            history = load_history(tmp_path / f"p{pid}")
            billed = sum(
                1 for r in result.ledger.records if r.sender == pid
            )
            assert history.total_sends() == billed

    def test_recovery_stats_count_recovery_events(self, tmp_path):
        result, recovery = run_with_crash(tmp_path)
        stats = recovery.stats
        assert (stats.crashes, stats.restarts) == (1, 1)
        assert stats.replayed_ticks == CRASH.restart_tick
        assert result.recovered == frozenset({2})

    def test_same_decision_as_uncrashed_run(self, tmp_path):
        inputs = {pid: "v" for pid in CONFIG.processes}
        baseline = run_weak_ba(
            CONFIG, inputs, validity_factory, seed=SEED,
            params=RunParameters(seed=SEED),
        )
        result, _ = run_with_crash(tmp_path)
        assert result.unanimous_decision() == baseline.unanimous_decision()


class TestAsyncRuntimes:
    def factories(self):
        validity = ExternalValidity(lambda v: isinstance(v, str))
        return {
            pid: (lambda ctx, v="v": weak_ba_protocol(ctx, v, validity))
            for pid in CONFIG.processes
        }

    def test_asyncio_runner_recovers(self, tmp_path):
        recovery = RecoveryManager(tmp_path)
        for pid in CONFIG.processes:
            recovery.describe_process(pid, protocol="weak_ba", input="v")
        result = asyncio.run(
            run_async(
                CONFIG, self.factories(), seed=SEED,
                tick_duration=0.02, fault_plan=PLAN, recovery=recovery,
            )
        )
        assert result.unanimous_decision() == "v"
        assert result.recovered == frozenset({2})
        assert recovery.stats.restarts == 1
        report = replay_wal(tmp_path / "p2")
        assert report.decided and report.decision == "v"

    def test_offline_replay_of_wall_clock_wals_needs_describe(self, tmp_path):
        """run_async takes hand-built factories, so it can stamp only
        n/t/seed: an unstamped WAL must name the remedy, and a
        describe()-stamped one replays offline to the live decision."""

        def run(wal_dir, **meta):
            recovery = RecoveryManager(wal_dir)
            recovery.describe(**meta)
            return asyncio.run(
                run_async(
                    CONFIG, self.factories(), seed=SEED,
                    tick_duration=0.02, recovery=recovery,
                )
            )

        run(tmp_path / "bare")
        with pytest.raises(RecoveryError, match=r"describe\(protocol="):
            replay_wal(tmp_path / "bare" / "p0")
        result = run(tmp_path / "stamped", protocol="weak_ba", input="v")
        report = replay_wal(tmp_path / "stamped" / "p0")
        assert report.decided and report.decision == result.decisions[0] == "v"

    def test_tcp_runner_recovers_with_bumped_epoch(self, tmp_path):
        recovery = RecoveryManager(tmp_path)
        result = asyncio.run(
            run_over_tcp(
                CONFIG, self.factories(), seed=SEED,
                tick_duration=0.05, fault_plan=PLAN, recovery=recovery,
            )
        )
        assert result.unanimous_decision() == "v"
        assert result.recovered == frozenset({2})
        # The rejoined node re-announced itself under a fresh epoch, so
        # its session-layer retransmit state started clean.
        assert recovery.stats.crashes == 1

    def test_asyncio_crashes_require_recovery_manager(self):
        with pytest.raises(SchedulerError, match="RecoveryManager"):
            asyncio.run(
                run_async(
                    CONFIG, self.factories(), seed=SEED, fault_plan=PLAN
                )
            )


class TestGuardrails:
    def test_tick_crashes_require_recovery_manager(self):
        inputs = {pid: "v" for pid in CONFIG.processes}
        with pytest.raises(SchedulerError, match="RecoveryManager"):
            run_weak_ba(
                CONFIG, inputs, validity_factory, seed=SEED,
                params=RunParameters(seed=SEED, fault_plan=PLAN),
            )

    def test_model_checked_runs_refuse_recovery(self, tmp_path):
        from repro.mc.choices import ChoiceSource
        from repro.runtime.scheduler import Simulation

        with pytest.raises(SchedulerError, match="filesystem"):
            Simulation(
                CONFIG,
                seed=0,
                choices=ChoiceSource([]),
                recovery=RecoveryManager(tmp_path),
            )

    def test_replay_divergence_is_loud(self, tmp_path):
        """A WAL whose highwater marks disagree with the deterministic
        machine must be refused, not silently rejoined."""
        result, _ = run_with_crash(tmp_path)
        assert result.unanimous_decision() == "v"
        # Forge an extra sends record: the replayed machine will send
        # fewer messages at that tick than the log claims.
        wal = ProcessWal(tmp_path / "p0")
        wal.log_sends(0, 17)
        wal.close()
        with pytest.raises(RecoveryError, match="replay diverged"):
            replay_wal(tmp_path / "p0")

    def test_offline_replay_needs_deployment_meta(self, tmp_path):
        wal = ProcessWal(tmp_path / "p9")
        wal.log_meta({"protocol": "weak_ba"})  # no n/t/seed/pid
        wal.close()
        with pytest.raises(RecoveryError, match="lacks"):
            replay_wal(tmp_path / "p9")

    def test_offline_replay_needs_known_protocol(self, tmp_path):
        wal = ProcessWal(tmp_path / "p9")
        wal.log_meta({"n": 4, "t": 1, "seed": 0, "pid": 0, "protocol": "hb"})
        wal.close()
        with pytest.raises(RecoveryError, match="no replay builder"):
            replay_wal(tmp_path / "p9")

    def test_crash_window_validation(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="restart tick"):
            FaultPlan(crashes=(ProcessCrash(pid=0, at_tick=5, restart_tick=5),))
        with pytest.raises(ConfigurationError, match="crash tick must be >= 1"):
            FaultPlan(crashes=(ProcessCrash(pid=0, at_tick=0, restart_tick=3),))
        with pytest.raises(ConfigurationError, match="overlapping"):
            FaultPlan(
                crashes=(
                    ProcessCrash(pid=0, at_tick=2, restart_tick=6),
                    ProcessCrash(pid=0, at_tick=4, restart_tick=8),
                )
            )
        # Adjacent windows (restart then crash again the same tick) are
        # legal: restarts are processed before crashes.
        FaultPlan(
            crashes=(
                ProcessCrash(pid=0, at_tick=2, restart_tick=4),
                ProcessCrash(pid=0, at_tick=4, restart_tick=6),
            )
        )
