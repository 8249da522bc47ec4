"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import CLI_PROTOCOLS, build_parser, main


class TestRun:
    @pytest.mark.parametrize("protocol", CLI_PROTOCOLS)
    def test_run_each_protocol(self, protocol, capsys):
        assert main(["run", protocol, "--n", "5"]) == 0
        out = capsys.readouterr().out
        assert "decided" in out
        assert "words=" in out

    @pytest.mark.parametrize("protocol", ["weak-ba", "fallback"])
    def test_crashed_run_replays_from_its_wal(self, protocol, tmp_path, capsys):
        assert main(
            ["run", protocol, "--n", "5", "--wal-dir", str(tmp_path),
             "--crash", "2:2:4"]
        ) == 0
        assert "recovered processes: [2]" in capsys.readouterr().out
        assert main(["recover", "replay", str(tmp_path / "p2")]) == 0
        assert "decided: 'hello'" in capsys.readouterr().out

    def test_run_with_failures(self, capsys):
        assert main(["run", "bb", "--n", "7", "--f", "2"]) == 0
        out = capsys.readouterr().out
        assert "f=2" in out
        assert "decided 'hello'" in out

    def test_run_with_adversary_choice(self, capsys):
        for adversary in ("garbage", "teasing"):
            assert main(
                ["run", "weak-ba", "--n", "7", "--f", "1", "--adversary", adversary]
            ) == 0
            assert "decided" in capsys.readouterr().out

    def test_strong_ba_bit(self, capsys):
        assert main(["run", "strong-ba", "--n", "5", "--bit", "0"]) == 0
        assert "decided 0" in capsys.readouterr().out

    def test_layer_breakdown_printed(self, capsys):
        main(["run", "bb", "--n", "5"])
        out = capsys.readouterr().out
        assert "bb/weak_ba" in out

    def test_export_flag(self, tmp_path, capsys):
        out_file = tmp_path / "run.json"
        assert main(["run", "bb", "--n", "5", "--export", str(out_file)]) == 0
        assert out_file.exists()
        from repro.analysis.export import load_run

        loaded = load_run(out_file)
        assert loaded.n == 5
        assert loaded.correct_words > 0

    def test_run_under_partial_synchrony(self, capsys):
        assert main(
            ["run", "weak-ba", "--n", "5", "--synchrony", "gst:3"]
        ) == 0
        assert "decided" in capsys.readouterr().out

    def test_run_under_stretched_lockstep(self):
        """Lockstep has one delay bound, ``delta = 1``: a stretched
        ``lockstep:N`` spec is refused, naming the accepted ones."""
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="'lockstep' or"):
            main(["run", "bb", "--n", "5", "--synchrony", "lockstep:2"])

    def test_rejects_bad_synchrony_spec(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            main(["run", "bb", "--n", "5", "--synchrony", "banana"])


MISCONFIGURED = [
    ["run", "weak-ba", "--n", "4"],
    ["run", "weak-ba", "--n", "5", "--f", "3"],
    ["run", "weak-ba", "--n", "5", "--synchrony", "gst:3", "--wal-dir", "{wal}"],
    ["run", "bb", "--n", "5", "--synchrony", "lockstep:2"],
    ["run", "strong-ba", "--n", "5", "--crash", "9:1:3", "--wal-dir", "{wal}"],
    ["mc", "explore", "--scenario", "nope"],
    ["mc", "explore", "--scenario", "psync-weak-ba", "--max-ticks", "12"],
    ["run", "bb", "--n", "7", "--f", "2", "--adversary", "teasing"],
]


@pytest.mark.parametrize("argv", MISCONFIGURED, ids=" ".join)
def test_misconfigured_call_prints_one_error_line(argv, tmp_path):
    """``python -m repro`` turns a library error into one diagnostic
    line and exit status 2, never a traceback."""
    env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
    completed = subprocess.run(
        [sys.executable, "-m", "repro",
         *(arg.format(wal=tmp_path / "wal") for arg in argv)],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert completed.returncode == 2
    assert "Traceback" not in completed.stderr
    lines = completed.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("repro: error: ")


class TestSweepAndTables:
    def test_sweep_prints_table_and_slope(self, capsys):
        assert main(["sweep", "bb", "--ns", "5", "9", "--max-f", "1"]) == 0
        out = capsys.readouterr().out
        assert "protocol" in out
        assert "failure-free words ~ n^" in out

    def test_sweep_under_partial_synchrony(self, capsys):
        assert main(
            ["sweep", "weak-ba", "--ns", "5", "--max-f", "0",
             "--synchrony", "gst:4"]
        ) == 0
        assert "weak_ba" in capsys.readouterr().out

    def test_flows(self, capsys):
        assert main(["flows", "--n", "5"]) == 0
        out = capsys.readouterr().out
        assert "activity timeline" in out
        assert "word-flow matrix" in out
        assert "centrality" in out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_protocol(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "paxos"])


class TestFaultFlags:
    def test_run_under_fault_plan_reports_effective_f(self, capsys):
        assert main(
            ["run", "bb", "--n", "7", "--drop-rate", "0.2",
             "--lossy-senders", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "fault plan: seed=0, drop_rate=0.2" in out
        assert "effective f (corrupted + omission senders): 1" in out
        assert "verdict under plan: OK" in out

    def test_omissions_count_toward_the_fault_budget(self, capsys):
        assert main(
            ["run", "weak-ba", "--n", "5", "--f", "0", "--drop-rate", "0.3",
             "--lossy-senders", "1", "3", "--fault-seed", "7"]
        ) == 0
        out = capsys.readouterr().out
        assert "effective f (corrupted + omission senders): 2" in out

    def test_plan_exceeding_t_rejected(self):
        # n=5 -> t=2; three omission-faulty senders alone exceed t.
        with pytest.raises(SystemExit, match="exceed t=2"):
            main(
                ["run", "weak-ba", "--n", "5", "--f", "0", "--drop-rate",
                 "0.5", "--lossy-senders", "1", "2", "3"]
            )

    def test_no_plan_without_fault_flags(self, capsys):
        assert main(["run", "bb", "--n", "5", "--fault-seed", "9"]) == 0
        assert "fault plan" not in capsys.readouterr().out


class TestModelChecking:
    def test_explore_proves_the_bounded_space(self, capsys):
        assert main(
            ["mc", "explore", "--n", "4", "--max-ticks", "60",
             "--perm-cap", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "(5 terminal, 92 pruned, 0 truncated at the horizon)" in out
        assert "PROVED over the bounded schedule space" in out
        assert "pruned" in out and "distinct states" in out

    def test_explore_with_truncated_runs_is_not_a_proof(self, capsys):
        """At 12 ticks one terminal run is cut at the horizon undecided:
        its termination was never checked, so nothing is proved."""
        assert main(
            ["mc", "explore", "--n", "4", "--max-ticks", "12",
             "--perm-cap", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "PROVED" not in out
        assert "1 of 5 terminal runs hit the horizon undecided" in out
        assert "termination unchecked there: NOT a proof" in out

    def test_explore_random_mode(self, capsys):
        assert main(
            ["mc", "explore", "--n", "4", "--mode", "random",
             "--max-runs", "5"]
        ) == 0
        assert "schedules: 5 run" in capsys.readouterr().out

    def test_explore_keeps_the_scenario_defaults(self, capsys):
        """Unset flags leave the scenario's own defaults: the psync
        preset takes no --max-ticks, and civit keeps its 24-tick
        horizon, so its runs decide instead of truncating at 12."""
        assert main(
            ["mc", "explore", "--scenario", "psync-weak-ba", "--max-runs", "200"]
        ) == 0
        assert "PROVED" in capsys.readouterr().out
        assert main(
            ["mc", "explore", "--scenario", "civit-strong-ba", "--perm-cap", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "horizon=24" in out
        assert "(5 terminal, 104 pruned, 1 truncated at the horizon)" in out

    def test_explore_any_table_row(self, capsys):
        assert main(
            ["mc", "explore", "--scenario", "strong-ba", "--mode", "random",
             "--max-runs", "3"]
        ) == 0
        assert "strong_ba n=4" in capsys.readouterr().out

    def test_mutant_kill_and_replay_roundtrip(self, tmp_path, capsys):
        assert main(
            ["mc", "mutants", "quorum-off-by-one", "--out-dir", str(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "KILLED (agreement)" in out
        artifact = tmp_path / "mutant-quorum-off-by-one.replay.json"
        assert artifact.exists()
        assert main(["mc", "replay", str(artifact)]) == 0
        out = capsys.readouterr().out
        assert "reproduced deterministically" in out
        assert "[agreement]" in out


class TestRecoverDiagnostics:
    """`repro recover` must fail loudly — one diagnostic line, exit 1 —
    on the operator mistakes a long soak makes routine."""

    def test_missing_stem_is_diagnosed(self, tmp_path, capsys):
        stem = str(tmp_path / "never-written" / "p3")
        assert main(["recover", "inspect", stem]) == 1
        assert "no WAL at" in capsys.readouterr().out
        assert main(["recover", "replay", stem]) == 1
        assert "no WAL at" in capsys.readouterr().out

    def test_empty_wal_is_diagnosed(self, tmp_path, capsys):
        (tmp_path / "p0.wal").write_bytes(b"")
        stem = str(tmp_path / "p0")
        assert main(["recover", "inspect", stem]) == 1
        assert "died before its first flush" in capsys.readouterr().out
        assert main(["recover", "replay", stem]) == 1
        assert "died before its first flush" in capsys.readouterr().out

    def test_directory_stem_lists_the_stems_inside(self, tmp_path, capsys):
        (tmp_path / "p0.wal").write_bytes(b"")
        (tmp_path / "p1.wal").write_bytes(b"")
        assert main(["recover", "inspect", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "is a directory, not a process stem" in out
        assert "p0, p1" in out
        assert main(["recover", "replay", str(tmp_path)]) == 1
        assert "is a directory" in capsys.readouterr().out

    def test_fully_torn_wal_fails_both_commands(self, tmp_path, capsys):
        """Garbage from byte 0: no valid prefix to recover, so inspect
        reports FATAL damage and both commands exit nonzero."""
        (tmp_path / "p0.wal").write_bytes(b"\xff\xde\xad\xbe\xef" * 20)
        stem = str(tmp_path / "p0")
        assert main(["recover", "inspect", stem]) == 1
        out = capsys.readouterr().out
        assert "damage (FATAL)" in out and "UNLOADABLE" in out
        assert main(["recover", "replay", stem]) == 1
        assert "replay failed" in capsys.readouterr().out

    def test_compacted_wal_fails_both_commands(self, tmp_path, capsys):
        """A WAL an older snapshotting writer truncated lacks its first
        ticks: both commands refuse it instead of replaying the rest."""
        from repro.recovery import ProcessWal

        wal = ProcessWal(tmp_path / "p0")
        wal.log_meta({
            "n": 4, "t": 1, "seed": 0, "pid": 0, "protocol": "weak_ba",
            "snapshot_through": 5,
        })
        wal.log_sends(6, 1)
        wal.close()
        stem = str(tmp_path / "p0")
        assert main(["recover", "inspect", stem]) == 1
        out = capsys.readouterr().out
        assert "UNLOADABLE" in out and "tick 5" in out
        assert main(["recover", "replay", stem]) == 1
        out = capsys.readouterr().out
        assert "replay failed" in out and "tick 5" in out


class TestSoakCli:
    def test_sabotaged_soak_fails_writes_artifact_and_replays(
        self, tmp_path, capsys
    ):
        out_json = tmp_path / "soak.json"
        arts = tmp_path / "arts"
        assert main(
            ["soak", "--seed", "5", "--instances", "2", "--workers", "1",
             "--chaos-profile", "calm", "--inject", "0:double-bill",
             "--out", str(out_json), "--artifacts-dir", str(arts)]
        ) == 1
        out = capsys.readouterr().out
        assert "instances committed: 2" in out
        assert "SOAK FAILED: 1 violation(s)" in out
        assert out_json.exists()
        artifact = arts / "soak-violation-i0.json"
        assert artifact.exists()
        assert main(["obs", "validate", str(out_json)]) == 0
        capsys.readouterr()

        assert main(["soak", "--replay", str(artifact)]) == 0
        assert "REPRODUCED" in capsys.readouterr().out

    def test_honest_soak_passes(self, tmp_path, capsys):
        assert main(
            ["soak", "--seed", "5", "--instances", "1", "--workers", "1",
             "--chaos-profile", "calm",
             "--out", str(tmp_path / "soak.json"),
             "--artifacts-dir", str(tmp_path / "arts")]
        ) == 0
        out = capsys.readouterr().out
        assert "violations: 0" in out
        assert "trend artifact written" in out

    def test_bad_inject_spec_is_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="--inject wants"):
            main(
                ["soak", "--instances", "1", "--inject", "frogs",
                 "--out", str(tmp_path / "s.json"),
                 "--artifacts-dir", str(tmp_path / "a")]
            )
