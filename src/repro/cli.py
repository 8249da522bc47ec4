"""Command-line interface: run, sweep, and inspect the protocols.

Usage (installed as a module entry point):

    python -m repro run bb --n 7 --value hello
    python -m repro run weak-ba --n 9 --f 2 --adversary silent
    python -m repro run strong-ba --n 7 --f 1 --seed 3
    python -m repro run dolev-strong --n 7
    python -m repro run bb --n 7 --drop-rate 0.2 --lossy-senders 2 3
    python -m repro sweep bb --ns 5 9 13 --max-f 2
    python -m repro flows --n 5 --f 0
    python -m repro report
    python -m repro mc explore --adversary choose-silent --max-ticks 12
    python -m repro mc explore --scenario strong-ba --mode random
    python -m repro mc mutants
    python -m repro mc replay counterexample.json
    python -m repro run weak-ba --n 4 --wal-dir /tmp/wal --crash 2:3:6
    python -m repro recover inspect /tmp/wal/p2
    python -m repro recover replay /tmp/wal/p2
    python -m repro soak --instances 1000 --duration 120 --workers 6
    python -m repro soak --replay runs/soak-artifacts/soak-violation-i7.json

Every command prints the decision(s), the paper's complexity measures,
and — where applicable — the per-layer word attribution.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.adversary.behaviors import GarbageSpammer, SilentBehavior
from repro.adversary.protocol_attacks import WeakBaTeasingLeader
from repro.adversary.strategies import SilentStrategy, StaticStrategy
from repro.analysis.fitting import fit_slope_vs
from repro.analysis.sweeps import sweep_parallel
from repro.analysis.tables import render_points
from repro.config import RunParameters, SystemConfig
from repro.errors import ConfigurationError
from repro.protocols.table import (
    PROTOCOLS,
    get_protocol,
    run_protocol,
    string_validity,
)
from repro.runtime.synchrony import parse_synchrony

ADVERSARIES = {
    "silent": lambda pid: SilentBehavior(),
    "garbage": lambda pid: GarbageSpammer(),
    "teasing": lambda pid: WeakBaTeasingLeader(value="tease"),
}

CLI_PROTOCOLS = [entry.cli for entry in PROTOCOLS.values() if entry.cli]
"""What ``repro run`` and ``repro sweep`` accept, in table order."""


def _report(result, label: str) -> None:
    decision = result.unanimous_decision()
    print(f"{label}: decided {decision!r}")
    print(
        f"  f={result.f}, words={result.correct_words}, "
        f"messages={result.ledger.correct_messages}, "
        f"signatures={result.ledger.signature_count()}, "
        f"rounds={result.ticks}, "
        f"fallback={'yes' if result.fallback_was_used() else 'no'}"
    )
    by_scope = result.ledger.words_by_scope()
    if by_scope:
        print("  layers:")
        for scope, words in sorted(by_scope.items()):
            print(f"    {scope:<24} {words} words")


def _parse_crash(spec: str):
    """Parse one ``--crash`` spec, ``PID:AT_TICK:RESTART_TICK``."""
    from repro.faults.plan import ProcessCrash

    parts = spec.split(":")
    if len(parts) != 3:
        raise SystemExit(
            f"--crash wants PID:AT_TICK:RESTART_TICK, got {spec!r}"
        )
    try:
        pid, at_tick, restart_tick = (int(part) for part in parts)
    except ValueError:
        raise SystemExit(
            f"--crash wants three integers PID:AT_TICK:RESTART_TICK, "
            f"got {spec!r}"
        ) from None
    return ProcessCrash(pid=pid, at_tick=at_tick, restart_tick=restart_tick)


def _fault_plan(args: argparse.Namespace):
    """Build the CLI's FaultPlan from ``--drop-rate``/``--lossy-senders``/
    ``--crash`` (``None`` when no fault flag is set)."""
    crashes = tuple(_parse_crash(spec) for spec in (args.crash or ()))
    if not args.drop_rate and not args.lossy_senders and not crashes:
        return None
    from repro.faults.plan import FaultPlan

    return FaultPlan(
        seed=args.fault_seed,
        drop_rate=args.drop_rate,
        lossy=frozenset(args.lossy_senders or ()),
        crashes=crashes,
    )


def cmd_run(args: argparse.Namespace) -> int:
    entry = get_protocol(args.protocol)
    if args.adversary == "teasing" and entry.name != "weak_ba":
        # It speaks weak BA's session "wba": on any other row it would
        # bill exactly what silence bills.
        raise ConfigurationError(
            f"--adversary teasing acts on weak-ba only, not {args.protocol}"
        )
    config = SystemConfig.with_optimal_resilience(args.n)
    byzantine = (
        StaticStrategy(ADVERSARIES[args.adversary], avoid=entry.shielded)
        .plan(config, args.f, args.seed)
        .initial
    )
    plan = _fault_plan(args)
    observer = None
    if args.obs_log or args.export:
        # Tick-clocked observer: deterministic telemetry, and the export
        # gains an ``obs`` snapshot for ``repro obs summary`` hot spots.
        from repro.obs import Observer

        observer = Observer()
    if plan is not None and plan.faulty:
        effective = len(frozenset(byzantine) | plan.faulty)
        if effective > config.t:
            raise SystemExit(
                f"corrupted ({sorted(byzantine)}) plus lossy senders "
                f"({sorted(plan.faulty)}) exceed t={config.t}: no property "
                "can be promised; reduce --f or --lossy-senders"
            )
    recovery = None
    if plan is not None and plan.crashes and not args.wal_dir:
        raise SystemExit(
            "--crash schedules a crash/restart fault, which needs a "
            "write-ahead log to recover from: pass --wal-dir DIR"
        )
    if args.wal_dir:
        from repro.recovery import RecoveryManager

        recovery = RecoveryManager(args.wal_dir, fsync=args.fsync)
    synchrony = (
        parse_synchrony(args.synchrony) if args.synchrony is not None else None
    )
    params = RunParameters(
        seed=args.seed, fault_plan=plan, observer=observer, recovery=recovery,
        synchrony=synchrony,
    )
    result = run_protocol(
        entry.name,
        config,
        entry.metas(config.processes, args.bit if entry.binary else args.value),
        seed=args.seed,
        byzantine=byzantine,
        params=params,
        validity=string_validity,
    )
    _report(result, f"{args.protocol} (n={config.n}, t={config.t})")
    if recovery is not None:
        stats = recovery.stats
        print(
            f"  recovery: crashes={stats.crashes}, restarts={stats.restarts}, "
            f"replayed_ticks={stats.replayed_ticks}, "
            f"replay_seconds={stats.replay_seconds:.6f}, "
            f"wal_bytes={recovery.wal_bytes()}"
        )
        if result.recovered:
            print(f"  recovered processes: {sorted(result.recovered)}")
        print(
            f"  WALs under {args.wal_dir}: "
            + ", ".join(f"p{pid}" for pid in recovery.pids())
        )
    if plan is not None:
        from repro.verify.checker import verify_under_plan

        effective_f = len(frozenset(result.corrupted) | plan.faulty)
        print(
            f"  fault plan: seed={plan.seed}, drop_rate={plan.drop_rate}, "
            f"lossy={sorted(plan.faulty) or '(all edges)'}"
        )
        print(
            f"  effective f (corrupted + omission senders): {effective_f}"
        )
        report = verify_under_plan(result, plan)
        print(f"  verdict under plan: {report.summary()}")
        if not report.ok:
            return 1
    if args.obs_log:
        path = observer.write_events(args.obs_log)
        print(f"  observer event log written to {path}")
    if args.export:
        from repro.analysis.export import save_run

        meta = {
            "protocol": args.protocol,
            "n": config.n,
            "t": config.t,
            "f": args.f,
            "seed": args.seed,
            "num_phases": params.phases_for(config),
        }
        path = save_run(result, args.export, meta=meta)
        print(f"  run exported to {path}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    points = sweep_parallel(
        args.protocol,
        args.ns,
        fs=lambda c: range(0, min(args.max_f, c.t) + 1),
        seeds=tuple(range(args.seeds)),
        jobs=args.jobs,
        synchrony=args.synchrony,
    )
    print(render_points(points))
    failure_free = [p for p in points if p.f == 0]
    if len({p.n for p in failure_free}) >= 2:
        fit = fit_slope_vs(failure_free, lambda p: p.n, lambda p: p.words)
        print(f"\nfailure-free words ~ n^{fit.slope:.2f} (R^2={fit.r_squared:.3f})")
    return 0


def cmd_flows(args: argparse.Namespace) -> int:
    from repro.adversary.strategies import apply_strategy
    from repro.analysis.flows import (
        activity_timeline,
        flow_matrix,
        leader_centrality,
        render_flow_matrix,
    )
    from repro.core.byzantine_broadcast import byzantine_broadcast_protocol
    from repro.runtime.scheduler import Simulation

    config = SystemConfig.with_optimal_resilience(args.n)
    plan = SilentStrategy(avoid=frozenset({0})).plan(config, args.f, args.seed)
    simulation = Simulation(config, seed=args.seed, record_envelopes=True)
    apply_strategy(
        simulation,
        plan,
        lambda pid: lambda ctx: byzantine_broadcast_protocol(ctx, 0, "v"),
    )
    result = simulation.run()
    print("activity timeline:")
    print(activity_timeline(result))
    print("\nword-flow matrix (sender -> receiver):")
    print(render_flow_matrix(flow_matrix(result.ledger, config.n)))
    print("\ncentrality (share of words touching each process):")
    for pid, share in leader_centrality(result.ledger, config.n).items():
        print(f"  p{pid}: {share:.1%}")
    return 0


def cmd_mc_explore(args: argparse.Namespace) -> int:
    from repro import mc

    flags = dict(
        n=args.n,
        num_phases=args.phases,
        adversary=args.adversary,
        max_ticks=args.max_ticks,
        perm_cap=args.perm_cap,
    )
    # Only the flags given: a scenario keeps its own defaults (civit's
    # 24-tick horizon), and one that takes no such param says so.
    scenario = mc.make_scenario(
        args.scenario,
        **{key: value for key, value in flags.items() if value is not None},
    )
    print(f"scenario: {scenario.description}")
    if args.mode == "exhaustive":
        prune = None if args.prune == "none" else args.prune
        result = mc.explore_exhaustive(
            scenario, max_runs=args.max_runs, prune=prune
        )
    else:
        result = mc.explore_random(
            scenario, runs=args.max_runs, seed=args.walk_seed,
            stop_at_first=False,
        )
    stats = result.stats
    print(
        f"schedules: {stats.runs} run ({stats.terminal} terminal, "
        f"{stats.pruned} pruned, {stats.truncated} truncated at the "
        f"horizon); distinct states: {stats.distinct_states}; "
        f"max decisions: {stats.max_depth}"
    )
    if args.mode == "exhaustive":
        if not result.complete:
            print(f"budget hit ({args.max_runs} runs): NOT a proof")
        elif not result.ok:
            print("space exhausted: counterexamples found")
        elif stats.truncated:
            # A run cut at the horizon is checked for safety only.
            print(
                f"space exhausted: no counterexample, but {stats.truncated} "
                f"of {stats.terminal} terminal runs hit the horizon "
                f"undecided; termination unchecked there: NOT a proof"
            )
        else:
            print(
                "space exhausted: properties PROVED over the bounded "
                "schedule space"
            )
    for counterexample in result.counterexamples:
        print(f"\ncounterexample {list(counterexample.decisions)}:")
        print(f"  {counterexample.summary}")
    if result.counterexamples and args.replay_out:
        shrunk = mc.shrink(scenario, result.counterexamples[0])
        artifact = mc.replay_artifact(scenario, shrunk.decisions)
        path = mc.save_replay(args.replay_out, artifact)
        print(
            f"\nshrunk {len(shrunk.original)} -> {len(shrunk.decisions)} "
            f"decisions; replay artifact written to {path}"
        )
    return 0 if result.ok else 1


def cmd_mc_mutants(args: argparse.Namespace) -> int:
    from repro import mc

    names = args.names or sorted(mc.MUTANTS)
    failures = 0
    for name in names:
        try:
            kill = mc.kill_mutant(name, out_dir=args.out_dir)
        except Exception as exc:  # surviving mutant = checker bug
            failures += 1
            print(f"mutant {name}: NOT KILLED -> {exc}")
        else:
            print(kill.summary())
        print()
    return 1 if failures else 0


def cmd_mc_replay(args: argparse.Namespace) -> int:
    from repro.mc.shrink import load_replay, replay

    artifact = load_replay(args.artifact)
    print(
        f"replaying {artifact['scenario']} with decisions "
        f"{artifact['decisions']}"
    )
    outcome = replay(artifact)
    print("recorded violations reproduced deterministically:")
    for violation in outcome.report.violations:
        print(f"  [{violation.kind}] {violation.detail}")
    if not outcome.report.violations:
        print("  (none — the artifact records a clean run)")
    return 0


def _load_export(path: str) -> dict:
    import json
    from pathlib import Path

    raw = json.loads(Path(path).read_text())
    if not isinstance(raw, dict) or "format_version" not in raw:
        raise SystemExit(
            f"{path} is not a run export (expected a `repro run --export` file)"
        )
    return raw


def cmd_obs_summary(args: argparse.Namespace) -> int:
    from repro.obs import render_summary, summarize_export

    print(render_summary(summarize_export(_load_export(args.export_path))))
    return 0


def cmd_obs_export(args: argparse.Namespace) -> int:
    import json

    from repro.obs import summarize_export

    text = json.dumps(summarize_export(_load_export(args.export_path)), indent=1)
    if args.out:
        from pathlib import Path

        Path(args.out).write_text(text + "\n")
        print(f"summary written to {args.out}")
    else:
        print(text)
    return 0


def cmd_obs_validate(args: argparse.Namespace) -> int:
    from repro.obs import validate_bench_result_file

    failures = 0
    for path in args.paths:
        errors = validate_bench_result_file(path)
        if errors:
            failures += 1
            for error in errors:
                print(error)
        else:
            print(f"{path}: ok")
    return 1 if failures else 0


def _wal_stem(path: str):
    """Accept a WAL stem or its ``.wal`` path."""
    from pathlib import Path

    stem = Path(path)
    if not stem.is_dir() and stem.suffix == ".wal":
        stem = stem.with_suffix("")
    return stem


def _diagnose_wal_stem(stem) -> str | None:
    """One-line diagnosis of an unusable WAL stem, or ``None`` if it is
    worth opening.

    Covers the operator mistakes a long soak makes routine: pointing the
    command at the run's ``--wal-dir`` instead of a process stem, at a
    stem that was never written, or at a WAL left empty because the
    process died before its first flush.
    """
    if stem.is_dir():
        stems = sorted(p.name[: -len(".wal")] for p in stem.glob("*.wal"))
        hint = ", ".join(stems[:8]) if stems else "none"
        return (
            f"{stem} is a directory, not a process stem "
            f"(stems inside: {hint})"
        )
    wal_path = stem.with_suffix(".wal")
    if not wal_path.exists():
        return f"no WAL at {wal_path}"
    if wal_path.is_file() and wal_path.stat().st_size == 0:
        return (
            f"{wal_path} is empty (0 bytes) — the process died before "
            "its first flush; nothing to recover"
        )
    return None


def cmd_recover_inspect(args: argparse.Namespace) -> int:
    """Report what one process's durable state contains — record counts,
    damage, metadata — without executing any protocol code."""
    from repro.recovery import load_history, scan_wal

    stem = _wal_stem(args.stem)
    problem = _diagnose_wal_stem(stem)
    if problem is not None:
        print(f"recover inspect: {problem}")
        return 1
    wal_path = stem.with_suffix(".wal")
    scan = scan_wal(wal_path)
    kinds: dict[str, int] = {}
    for record in scan.records:
        kind = (
            record[0]
            if isinstance(record, (list, tuple)) and record
            else "?"
        )
        kinds[str(kind)] = kinds.get(str(kind), 0) + 1
    print(
        f"{wal_path}: {len(scan.records)} records, "
        f"{scan.bytes_read} valid bytes"
    )
    for kind, count in sorted(kinds.items()):
        print(f"  {kind:<8} x{count}")
    if scan.damage is not None:
        marker = "tolerable" if scan.damage.tolerable else "FATAL"
        print(
            f"  damage ({marker}): {scan.damage.kind} at offset "
            f"{scan.damage.offset}: {scan.damage.detail}"
        )
    try:
        history = load_history(stem, strict=args.strict)
    except Exception as exc:  # RecoveryError or unreadable state
        print(f"history: UNLOADABLE — {exc}")
        return 1
    print("history:")
    for key in sorted(history.meta):
        print(f"  meta.{key} = {history.meta[key]!r}")
    print(f"  ticks with input: {len(history.inboxes)}")
    print(f"  through tick: {history.through_tick}")
    print(f"  total sends: {history.total_sends()}")
    if history.down_windows:
        windows = ", ".join(f"[{lo}, {hi})" for lo, hi in history.down_windows)
        print(f"  down windows: {windows}")
    return 0


def cmd_recover_replay(args: argparse.Namespace) -> int:
    """Re-drive a process's protocol from its WAL and report what the
    deterministic replay reconstructed."""
    from repro.errors import RecoveryError
    from repro.recovery import replay_wal

    stem = _wal_stem(args.stem)
    problem = _diagnose_wal_stem(stem)
    if problem is not None:
        print(f"recover replay: {problem}")
        return 1
    try:
        report = replay_wal(stem, strict=args.strict)
    except (RecoveryError, OSError) as exc:
        print(f"replay failed: {exc}")
        return 1
    summary = report.summary()
    print(f"replayed p{summary.pop('pid')} from {stem}")
    for key in (
        "ticks_replayed", "sends_replayed", "events_replayed",
        "resumed_at_tick",
    ):
        print(f"  {key} = {summary[key]}")
    print(f"  duration = {report.duration_seconds:.6f}s")
    if report.down_windows:
        windows = ", ".join(f"[{lo}, {hi})" for lo, hi in report.down_windows)
        print(f"  down windows: {windows}")
    if report.decided:
        print(f"  decided: {report.decision!r}")
    else:
        print("  decided: not within the recorded history")
    return 0


def _parse_inject(spec: str) -> tuple[int, str]:
    """Parse one ``--inject`` spec, ``INDEX:TAG``."""
    from repro.soak import INJECT_DOUBLE_BILL, INJECT_SKIP_REJOIN_DEDUP

    tags = (INJECT_DOUBLE_BILL, INJECT_SKIP_REJOIN_DEDUP)
    index, sep, tag = spec.partition(":")
    if not sep or tag not in tags:
        raise SystemExit(
            f"--inject wants INDEX:TAG with TAG in {tags}, got {spec!r}"
        )
    try:
        return int(index), tag
    except ValueError:
        raise SystemExit(
            f"--inject wants an integer instance index, got {spec!r}"
        ) from None


def cmd_soak(args: argparse.Namespace) -> int:
    """Run a chaos soak campaign (or replay one violation artifact)."""
    from repro.obs import Observer
    from repro.soak import (
        SoakSettings,
        render_outcome,
        replay_artifact,
        run_fleet,
        write_soak_result,
    )

    if args.replay:
        verdict = replay_artifact(args.replay)
        print(
            f"replayed instance {verdict['index']}: "
            f"recorded {verdict['recorded_kinds']}, "
            f"fresh {verdict['fresh_kinds']}"
        )
        if verdict["derivation_drift"]:
            print(
                "  note: derive_instance no longer produces the recorded "
                "spec (replayed the recorded spec verbatim)"
            )
        if verdict["reproduced"]:
            print("  verdict: REPRODUCED")
            return 0
        print("  verdict: did not reproduce")
        return 1

    instances = args.instances
    if instances is None and args.duration is None:
        instances = 1000
    settings = SoakSettings(
        master_seed=args.seed,
        profile=args.chaos_profile,
        workers=args.workers,
        instances=instances,
        duration=args.duration,
        tick_duration=args.tick,
        artifacts_dir=args.artifacts_dir,
        inject=dict(_parse_inject(spec) for spec in (args.inject or ())),
    )
    observer = Observer.wall()
    outcome = run_fleet(settings, observer=observer, progress=print)
    print(render_outcome(outcome))
    path = write_soak_result(outcome, args.out)
    print(f"trend artifact written to {path}")
    if args.obs_log:
        print(f"observer events written to {observer.write_events(args.obs_log)}")
    if not outcome.ok:
        print(
            f"SOAK FAILED: {len(outcome.violations)} violation(s); "
            f"replay artifacts in {settings.artifacts_dir}"
        )
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Adaptive Byzantine Agreement (PODC 2022) — reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run one protocol instance")
    run_parser.add_argument("protocol", choices=CLI_PROTOCOLS)
    run_parser.add_argument("--n", type=int, default=7, help="odd, n = 2t+1")
    run_parser.add_argument("--f", type=int, default=0, help="actual failures")
    run_parser.add_argument(
        "--adversary", choices=sorted(ADVERSARIES), default="silent",
        help="behavior of the --f corrupted processes (teasing: weak-ba only)",
    )
    run_parser.add_argument("--value", default="hello")
    run_parser.add_argument("--bit", type=int, choices=[0, 1], default=1,
                            help="strong-ba binary input")
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument(
        "--export", default=None, metavar="PATH",
        help="write the full run (ledger + trace + observer snapshot) "
        "to a JSON file",
    )
    run_parser.add_argument(
        "--obs-log", default=None, metavar="PATH",
        help="record the run with an observer and write its structured "
        "event log as JSONL",
    )
    run_parser.add_argument(
        "--fault-seed", type=int, default=0,
        help="seed for the fault plan's per-message decisions",
    )
    run_parser.add_argument(
        "--drop-rate", type=float, default=0.0,
        help="probability a message from a lossy sender is dropped "
        "(send-omission faults; counts toward the effective f)",
    )
    run_parser.add_argument(
        "--lossy-senders", type=int, nargs="+", default=None, metavar="PID",
        help="senders whose messages may be dropped; omit to make every "
        "edge lossy (exceeds the paper's model)",
    )
    run_parser.add_argument(
        "--wal-dir", default=None, metavar="DIR",
        help="give every correct process a write-ahead log under DIR "
        "(required for --crash; inspect afterwards with `repro recover`)",
    )
    run_parser.add_argument(
        "--fsync", choices=["always", "batch", "never"], default="batch",
        help="WAL durability policy (default: one fsync per tick)",
    )
    run_parser.add_argument(
        "--crash", action="append", default=None, metavar="PID:AT:RESTART",
        help="crash process PID at tick AT and restart it (from its WAL) "
        "at tick RESTART; repeatable",
    )
    run_parser.add_argument(
        "--synchrony", default=None, metavar="SPEC",
        help="timing model: 'lockstep' (the default, delta = 1) or "
        "'gst:<tick>[:delta]' for partial synchrony with a global "
        "stabilization time (incompatible with --wal-dir)",
    )
    run_parser.set_defaults(func=cmd_run)

    sweep_parser = sub.add_parser("sweep", help="sweep (n, f) and fit slopes")
    sweep_parser.add_argument("protocol", choices=CLI_PROTOCOLS)
    sweep_parser.add_argument("--ns", type=int, nargs="+", default=[5, 9, 13])
    sweep_parser.add_argument("--max-f", type=int, default=1)
    sweep_parser.add_argument("--seeds", type=int, default=1)
    sweep_parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes fanning out the grid points (1 = serial; "
        "each point's run is identical either way)",
    )
    sweep_parser.add_argument(
        "--synchrony", default=None, metavar="SPEC",
        help="timing model for every grid point: 'lockstep' (the default) "
        "or 'gst:<tick>[:delta]' (e.g. `repro sweep weak-ba --synchrony "
        "gst:4`); the model is reseeded with each point's seed",
    )
    sweep_parser.set_defaults(func=cmd_sweep)

    flows_parser = sub.add_parser(
        "flows", help="message-flow deep dive of one BB run"
    )
    flows_parser.add_argument("--n", type=int, default=5)
    flows_parser.add_argument("--f", type=int, default=0)
    flows_parser.add_argument("--seed", type=int, default=0)
    flows_parser.set_defaults(func=cmd_flows)

    mc_parser = sub.add_parser(
        "mc", help="schedule-space model checking (explore/mutants/replay)"
    )
    mc_sub = mc_parser.add_subparsers(dest="mc_command", required=True)

    explore_parser = mc_sub.add_parser(
        "explore", help="explore a scenario's bounded schedule space"
    )
    explore_parser.add_argument(
        "--scenario", default="weak-ba",
        help="a protocol (as for `run`, or a table name) or psync-weak-ba",
    )
    # Unset flags leave the scenario's own default (repro.mc.scenario).
    explore_parser.add_argument("--n", type=int, default=None)
    explore_parser.add_argument("--phases", type=int, default=None)
    explore_parser.add_argument(
        "--adversary", default=None,
        help="adversary mode of the scenario (see repro.mc.scenario)",
    )
    explore_parser.add_argument("--max-ticks", type=int, default=None)
    explore_parser.add_argument(
        "--perm-cap", type=int, default=None,
        help="inbox orderings offered per choice point (bounds the space; "
        "6 explores the full n=4 space in ~5 minutes, 2-3 in seconds)",
    )
    explore_parser.add_argument(
        "--mode", choices=["exhaustive", "random"], default="exhaustive"
    )
    explore_parser.add_argument(
        "--max-runs", type=int, default=100_000,
        help="exhaustive budget / number of random walks",
    )
    explore_parser.add_argument(
        "--prune", choices=["behavior", "history", "none"], default="behavior"
    )
    explore_parser.add_argument("--walk-seed", type=int, default=0)
    explore_parser.add_argument(
        "--replay-out", default=None, metavar="PATH",
        help="shrink the first counterexample and write its replay artifact",
    )
    explore_parser.set_defaults(func=cmd_mc_explore)

    mutants_parser = mc_sub.add_parser(
        "mutants", help="kill the protocol mutants, artifact per kill"
    )
    mutants_parser.add_argument(
        "names", nargs="*", metavar="MUTANT",
        help="mutants to kill (default: all)",
    )
    mutants_parser.add_argument(
        "--out-dir", default=None, metavar="DIR",
        help="write a replay artifact per kill into this directory",
    )
    mutants_parser.set_defaults(func=cmd_mc_mutants)

    replay_parser = mc_sub.add_parser(
        "replay", help="re-execute a replay artifact and verify it"
    )
    replay_parser.add_argument("artifact", metavar="PATH")
    replay_parser.set_defaults(func=cmd_mc_replay)

    obs_parser = sub.add_parser(
        "obs", help="observability: summarize exports, validate bench JSON"
    )
    obs_sub = obs_parser.add_subparsers(dest="obs_command", required=True)

    obs_summary = obs_sub.add_parser(
        "summary",
        help="per-phase words, silent-phase ratio, fallback skew, hot "
        "spots of one recorded run (a `repro run --export` file)",
    )
    obs_summary.add_argument("export_path", metavar="EXPORT.json")
    obs_summary.set_defaults(func=cmd_obs_summary)

    obs_export = obs_sub.add_parser(
        "export", help="the same summary as machine-readable JSON"
    )
    obs_export.add_argument("export_path", metavar="EXPORT.json")
    obs_export.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the summary JSON here instead of stdout",
    )
    obs_export.set_defaults(func=cmd_obs_export)

    obs_validate = obs_sub.add_parser(
        "validate",
        help="check benchmarks/results/*.json against the result schema",
    )
    obs_validate.add_argument("paths", nargs="+", metavar="RESULT.json")
    obs_validate.set_defaults(func=cmd_obs_validate)

    recover_parser = sub.add_parser(
        "recover", help="inspect and replay per-process write-ahead logs"
    )
    recover_sub = recover_parser.add_subparsers(
        dest="recover_command", required=True
    )

    inspect_parser = recover_sub.add_parser(
        "inspect",
        help="report a WAL's records, metadata, and any damage "
        "(no protocol code runs)",
    )
    inspect_parser.add_argument(
        "stem", metavar="STEM",
        help="WAL stem (e.g. wal/p2), or its .wal path",
    )
    inspect_parser.add_argument(
        "--strict", action="store_true",
        help="treat a torn tail (the normal crash signature) as fatal too",
    )
    inspect_parser.set_defaults(func=cmd_recover_inspect)

    replay_parser2 = recover_sub.add_parser(
        "replay",
        help="re-drive the protocol from a WAL and report the "
        "reconstructed state",
    )
    replay_parser2.add_argument(
        "stem", metavar="STEM",
        help="WAL stem (e.g. wal/p2), or its .wal path",
    )
    replay_parser2.add_argument(
        "--strict", action="store_true",
        help="treat a torn tail (the normal crash signature) as fatal too",
    )
    replay_parser2.set_defaults(func=cmd_recover_replay)

    from repro.soak.plan import DEFAULT_TICK, PROFILES

    soak_parser = sub.add_parser(
        "soak",
        help="long-running chaos soak: a multi-process TCP fleet under "
        "seeded chaos with an always-on invariant auditor",
    )
    soak_parser.add_argument(
        "--seed", type=int, default=7,
        help="master seed; every instance's spec and fault plan derives "
        "from it, so failures replay deterministically",
    )
    soak_parser.add_argument(
        "--chaos-profile", choices=sorted(PROFILES), default="mixed",
        help="fault mix thrown at each instance (default: mixed)",
    )
    soak_parser.add_argument(
        "--workers", type=int, default=3,
        help="worker OS processes, each running whole TCP clusters "
        "(default: 3)",
    )
    soak_parser.add_argument(
        "--instances", type=int, default=None,
        help="run at least this many instances (default 1000 when "
        "--duration is not set; with --duration, both must be met)",
    )
    soak_parser.add_argument(
        "--duration", type=float, default=None, metavar="SECONDS",
        help="keep soaking for at least this long",
    )
    soak_parser.add_argument(
        "--tick", type=float, default=DEFAULT_TICK,
        help=f"round timeout δ in seconds (default {DEFAULT_TICK}; a "
        "round ends earlier once every copy has landed; workers escalate "
        "2x/4x when a round closed by timeout changed the outcome)",
    )
    soak_parser.add_argument(
        "--out", default="benchmarks/results/soak.json", metavar="PATH",
        help="schema-valid trend artifact (default: "
        "benchmarks/results/soak.json)",
    )
    soak_parser.add_argument(
        "--artifacts-dir", default="runs/soak-artifacts", metavar="DIR",
        help="replayable violation artifacts land here as they are caught",
    )
    soak_parser.add_argument(
        "--inject", action="append", default=None, metavar="INDEX:TAG",
        help="sabotage instance INDEX with a known accounting bug "
        "(double-bill, skip-rejoin-dedup) to prove the auditor catches "
        "it; repeatable",
    )
    soak_parser.add_argument(
        "--obs-log", default=None, metavar="PATH",
        help="write the campaign's structured observer events as JSONL",
    )
    soak_parser.add_argument(
        "--replay", default=None, metavar="ARTIFACT",
        help="instead of soaking, re-run one violation artifact and "
        "report whether its verdict reproduces",
    )
    soak_parser.set_defaults(func=cmd_soak)

    report_parser = sub.add_parser(
        "report", help="run the condensed claim battery, emit markdown"
    )
    report_parser.add_argument("--ns", type=int, nargs="+", default=[5, 9, 13, 17])
    report_parser.add_argument(
        "--out", default=None, help="write the report to this file"
    )
    report_parser.set_defaults(func=cmd_report)
    return parser


def cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import collect_claims, render_report

    claims = collect_claims(tuple(args.ns))
    text = render_report(claims)
    if args.out:
        from pathlib import Path

        Path(args.out).write_text(text + "\n")
        print(f"report written to {args.out}")
    print(text)
    return 0 if all(c.holds for c in claims) else 1


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
