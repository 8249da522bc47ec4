"""Recovery subsystem cost model: WAL overhead and replay latency.

The crash-recovery tentpole's bargain is: pay a WAL tax on every run so
that a crashed process can rejoin *without* a protocol-visible resync
(the rejoin replays the WAL locally; the cluster sends nothing extra,
so the word bill stays exactly the adaptive ``O((t+1)n)`` the paper
bills).  This bench prices both sides of the bargain on weak BA:

* **WAL overhead** — same deployment, same seed, memory-only vs each
  fsync policy (``never``/``batch``/``always``).  The decision and the
  word bill must be *identical* (durability is observability, not
  protocol); only wall-clock and disk bytes may move.
* **Replay latency** — a scheduled crash/restart recovers from the WAL
  mid-run; the in-run replay time comes from the recovery stats and the
  offline ``repro recover replay`` path is timed separately.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from pathlib import Path

from repro.analysis.tables import format_table
from repro.config import RunParameters, SystemConfig
from repro.core.validity import ExternalValidity
from repro.core.weak_ba import run_weak_ba
from repro.faults import FaultPlan, ProcessCrash
from repro.recovery import RecoveryManager, replay_wal

from benchmarks._harness import publish, word_bill

CONFIG = SystemConfig.with_optimal_resilience(7)
SEED = 7
VALIDITY = lambda suite, cfg: ExternalValidity(lambda v: isinstance(v, str))
CRASH = ProcessCrash(pid=2, at_tick=3, restart_tick=6)
ROUNDS = 5


def _run(recovery=None, fault_plan=None):
    params = RunParameters(
        seed=SEED, fault_plan=fault_plan, recovery=recovery, num_phases=2
    )
    return run_weak_ba(
        CONFIG,
        {p: "v" for p in CONFIG.processes},
        VALIDITY,
        seed=SEED,
        params=params,
    )


def _timed_variant(make_recovery, fault_plan=None):
    """Best-of-ROUNDS wall clock plus the last run's artifacts."""
    best, result, recovery, wal_bytes = float("inf"), None, None, 0
    for _ in range(ROUNDS):
        wal_dir = Path(tempfile.mkdtemp(prefix="bench-recovery-"))
        try:
            recovery = make_recovery(wal_dir)
            start = time.perf_counter()
            result = _run(recovery, fault_plan)
            elapsed = time.perf_counter() - start
            if recovery is not None:
                recovery.close()
                wal_bytes = recovery.wal_bytes()
            best = min(best, elapsed)
        finally:
            if fault_plan is None:
                shutil.rmtree(wal_dir, ignore_errors=True)
            else:  # keep the last crash run's WALs for offline replay
                if _timed_variant.keep is not None:
                    shutil.rmtree(_timed_variant.keep, ignore_errors=True)
                _timed_variant.keep = wal_dir
    return best, result, recovery, wal_bytes


_timed_variant.keep = None


def test_wal_overhead_and_replay_latency():
    base_s, baseline, _, _ = _timed_variant(lambda d: None)

    rows, bills, overheads = [], [word_bill("memory-only", baseline)], {}
    rows.append(["memory-only", f"{base_s * 1e3:.2f}", "1.000x", "-"])
    for fsync in ("never", "batch", "always"):
        run_s, result, _, wal_bytes = _timed_variant(
            lambda d, f=fsync: RecoveryManager(d, fsync=f)
        )
        # Durability must be protocol-invisible: same decision, same bill.
        assert result.unanimous_decision() == baseline.unanimous_decision()
        assert (
            result.ledger.correct_words == baseline.ledger.correct_words
        ), f"fsync={fsync} changed the word bill"
        overheads[fsync] = run_s / base_s
        bills.append(word_bill(f"wal-{fsync}", result))
        rows.append(
            [f"wal-{fsync}", f"{run_s * 1e3:.2f}",
             f"{overheads[fsync]:.3f}x", str(wal_bytes)]
        )

    # Crash/restart: mid-run replay from the WAL, then offline replay.
    plan = FaultPlan(crashes=(CRASH,), seed=SEED)
    crash_s, crashed, recovery, wal_bytes = _timed_variant(
        lambda d: RecoveryManager(d), fault_plan=plan
    )
    assert crashed.unanimous_decision() == baseline.unanimous_decision()
    assert crashed.recovered == frozenset({CRASH.pid})
    assert recovery.stats.restarts == 1
    in_run_replay_s = recovery.stats.replay_seconds

    wal_dir = _timed_variant.keep
    offline_start = time.perf_counter()
    offline = replay_wal(wal_dir / f"p{CRASH.pid}")
    offline_replay_s = time.perf_counter() - offline_start
    assert offline.decided
    assert repr(offline.decision) == repr(crashed.decisions[CRASH.pid])
    shutil.rmtree(wal_dir, ignore_errors=True)
    _timed_variant.keep = None

    bills.append(word_bill("crash-restart", crashed))
    rows.append(
        ["crash-restart", f"{crash_s * 1e3:.2f}",
         f"{crash_s / base_s:.3f}x", str(wal_bytes)]
    )

    # Replay is a local rebuild, not a protocol exchange: it must be
    # cheap relative to the run it recovers (order-of-magnitude guard).
    assert in_run_replay_s < base_s
    assert offline_replay_s < 10 * base_s

    publish(
        "recovery",
        format_table(
            ["variant", f"best of {ROUNDS} (ms)", "vs memory-only", "wal bytes"],
            rows,
        ),
        (
            f"in-run replay of {recovery.stats.replayed_ticks} tick(s) took "
            f"{in_run_replay_s * 1e3:.2f} ms; offline replay of p{CRASH.pid}'s "
            f"WAL ({offline.ticks_replayed} ticks) took "
            f"{offline_replay_s * 1e3:.2f} ms and reproduced the decision."
        ),
        scenario={
            "protocol": "weak-ba",
            "n": CONFIG.n,
            "t": CONFIG.t,
            "seed": SEED,
            "rounds": ROUNDS,
            "estimator": "min",
            "crash": {
                "pid": CRASH.pid,
                "at_tick": CRASH.at_tick,
                "restart_tick": CRASH.restart_tick,
            },
            "fsync_overhead": overheads,
            "in_run_replay_seconds": in_run_replay_s,
            "offline_replay_seconds": offline_replay_s,
            "wal_bytes": wal_bytes,
        },
        word_bills=bills,
    )
