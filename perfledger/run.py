"""The repo's benchmark: five workloads, end-to-end and per-layer metrics.

Two ways in, one measurement underneath:

``python3 perfledger/run.py --workload W --seed S --seconds T --trace 0|1``
    One workload, as ``BENCHMARK.json``'s driver runs it.  The last line
    of standard output is one JSON object: ``correct``, ``attempted``,
    ``failed`` and the end-to-end slots (``--trace 0``) or every
    per-layer metric (``--trace 1``; a metric that means nothing on this
    workload reads 0).

``python3 perfledger/run.py --seed S``
    All five workloads, untraced then traced, each in fresh child
    processes, one after the other.  Prints every metric by name and
    unit and writes one result document (default
    ``perfledger/out/BENCH.json``) that ``compare.py`` reads and
    ``trajectory/`` keeps.

Exit status is non-zero when an op failed, when an exact count differed
between the untraced and the traced run of the same op, or when the
program under test (``src/repro``) is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import summary
from workloads import ISSUE_PASSES, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

RUN_SECONDS = 10
"""Default ``--seconds``; equal to ``BENCHMARK.json``'s ``run_seconds``."""

MIN_PASSES = {"sim_adaptive": 8}
"""Timed passes a run makes however short ``--seconds`` is.  Eight passes
of ``sim_adaptive`` are 104 decisions, the fewest that support a p90
(ten samples beyond it); three everywhere else give every once-per-pass
op a median."""

SETUPS = 3
"""Fresh child processes whose set-up time an untraced run takes the
median of (the measuring child is one of them), so that one slow start
does not move ``setup_s``."""

RUNS = 3
"""Untraced runs per workload in a full run; the result document reports
their median and the spread between them, which ``compare.py`` holds
against the bound."""

CHILD_TIMEOUT_S = 170


def _child(workload, seed, seconds, scratch, *, trace, setup_only=False) -> dict:
    """Run ``measure.py`` in a fresh interpreter and return its result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SOURCE] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    env["TMPDIR"] = scratch  # the soak worker's WALs must stay in the checkout
    command = [
        sys.executable, os.path.join(HERE, "measure.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--min-passes", str(MIN_PASSES.get(workload, 3)),
        "--trace", str(int(trace)), "--scratch", scratch,
        "--trace-path", os.path.join(OUT, f"trace-{workload}.jsonl"),
        "--spawned", repr(time.monotonic()),
    ]
    if setup_only:
        command.append("--setup-only")
    done = subprocess.run(
        command, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload}: child exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def digest(workload, runs: list[list[dict]], trace: bool) -> dict:
    """Turn child results into one result: ``correct``, ``attempted``,
    ``failed``, ``metrics`` (slots or per-layer), ``problems``, ``ops``.

    Each of ``runs`` is the results of one run's children, the measuring
    child first and its set-up-only children after it; the slots report
    the median run.
    """
    samples = [
        s
        for children in runs
        for each in children
        for part in ("warm", "untraced", "traced")
        for s in each.get(part, [])
    ]
    problems = [
        f"op {s['op_id']} ({s['kind']} {s['tag']}): {reason}"
        for s in samples
        for reason in s["reasons"]
    ]
    measured = [children[0] for children in runs]
    result = measured[-1]
    problems += [f"count mismatch: {m}" for m in result.get("count_mismatches", [])]
    if trace and "per_layer" not in result:
        problems.append(
            "no per-layer metrics: an op of the traced pass, or every op of"
            " one kind, raised"
        )
    run = {
        "attempted": sum(s["units"] for s in samples),
        "failed": sum(s["failed"] for s in samples),
        "problems": problems,
        "ops": {
            "timed_passes": sum(each["timed_passes"] for each in measured),
            "timed_ops": sum(len(each["untraced"]) for each in measured),
            "issue_passes": ISSUE_PASSES[workload],
        },
    }
    run["correct"] = run["failed"] == 0 and not problems
    if trace:
        per_layer = result.get("per_layer", {})
        run["per_layer"] = per_layer
        run["metrics"] = {
            name: {"value": per_layer.get(name, 0.0), "unit": unit}
            for name, unit in summary.PER_LAYER_UNITS.items()
        }
        return run
    try:
        run["slots"] = summary.combine(
            [
                summary.end_to_end(
                    workload, children[0]["untraced"],
                    [each["setup_s"] for each in children],
                    children[0]["peak_rss_mb"],
                )
                for children in runs
            ]
        )
    except (statistics.StatisticsError, ZeroDivisionError) as exc:
        raise RuntimeError(f"{workload}: too few good samples ({exc})") from exc
    run["metrics"] = {
        slot: {"value": run["slots"][slot]["value"], "unit": unit}
        for slot, (unit, _, _) in summary.SLOTS.items()
    }
    return run


def run_workload(workload, seed, seconds, scratch, trace: bool, runs: int = 1) -> dict:
    """Measure one workload in fresh child processes, one after the other.

    An untraced run is one measuring child and ``SETUPS - 1`` children
    that only set up; a traced run is one child.
    """
    return digest(
        workload,
        [
            [_child(workload, seed, seconds, scratch, trace=trace)]
            + [
                _child(workload, seed, seconds, scratch, trace=False, setup_only=True)
                for _ in range(0 if trace else SETUPS - 1)
            ]
            for _ in range(runs)
        ],
        trace,
    )


def entry(workload: str, untraced: dict, traced: dict) -> dict:
    """One workload's part of the result document, from its untraced and
    its traced run."""
    attempted = untraced["attempted"] + traced["attempted"]
    failed = untraced["failed"] + traced["failed"]
    end_to_end = summary.named(workload, untraced["slots"])
    end_to_end["fail_ratio"] = {
        "value": failed / attempted, "unit": "ratio", "samples": attempted,
        "spread": 0.0, "better": "lower", "bound": 0.0,
    }
    return {
        "why": WORKLOADS[workload],
        "ops": dict(untraced["ops"], attempted=attempted, failed=failed),
        "end_to_end": end_to_end,
        "per_layer": {
            name: {
                "value": value,
                "unit": summary.PER_LAYER_UNITS[name],
                "exact": summary.is_exact(workload, name),
            }
            for name, value in traced["per_layer"].items()
        },
        "problems": untraced["problems"] + traced["problems"],
    }


def _print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, metric in metrics.items():
        extra = ""
        if "samples" in metric:
            extra = f"   (n={metric['samples']}"
            if "percentile" in metric:
                extra += f", p{metric['percentile']}"
            if metric.get("runs", 1) > 1:
                extra += f", {metric['runs']} runs spread {metric['spread']:.1%}"
            extra += ")"
        print(f"  {name:<40} {metric['value']:>14.6g} {metric['unit']}{extra}")


def _report_problems(run: dict) -> None:
    for problem in run["problems"]:
        print(f"  FAILED: {problem}", file=sys.stderr)


def driver_main(args, scratch) -> int:
    run = run_workload(
        args.workload, args.seed, args.seconds, scratch, bool(args.trace)
    )
    _print_metrics(
        f"{args.workload} seed={args.seed} trace={args.trace}: "
        f"{run['failed']} of {run['attempted']} units failed",
        run.get("slots") or run["metrics"],
    )
    _report_problems(run)
    print(
        json.dumps(
            {key: run[key] for key in ("correct", "attempted", "failed", "metrics")}
        )
    )
    return 0 if run["correct"] else 1


# ----------------------------------------------------------------------
# The full ledger: every workload, one result document
# ----------------------------------------------------------------------


def calibrate(repeats: int = 3) -> float:
    """Median time of a fixed pure-Python + ``pow(a, -1, p)`` loop — the
    two things the program's hot paths are made of.  Timed before the
    first and after the last workload: if the two differ by more than a
    tenth, the machine was not steady."""
    prime = 2**255 - 19
    times = []
    for _ in range(repeats):
        value, folded = 3, 0
        start = time.perf_counter()
        for _ in range(25_000):
            value = (value * 6364136223846793005 + 1442695040888963407) % prime
            folded ^= pow(value, -1, prime)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _git_rev() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def full_main(args, scratch) -> int:
    environment = {
        "git_rev": _git_rev(),
        "python": platform.python_version(),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "load_start": os.getloadavg()[0],
        "calib_s_start": calibrate(),
    }
    document = {
        "schema": "perfledger/1",
        "seed": args.seed,
        "seconds": args.seconds,
        "runs": RUNS,
        "environment": environment,
        "workloads": {},
    }
    ok = True
    for workload in WORKLOADS:
        untraced = run_workload(
            workload, args.seed, args.seconds, scratch, trace=False, runs=RUNS
        )
        traced = run_workload(workload, args.seed, args.seconds, scratch, trace=True)
        part = document["workloads"][workload] = entry(workload, untraced, traced)
        _print_metrics(f"== {workload}: end to end (tracing off)", part["end_to_end"])
        _print_metrics(f"== {workload}: per layer (traced run)", part["per_layer"])
        for run in (untraced, traced):
            _report_problems(run)
            ok = ok and run["correct"]
    environment["load_end"] = os.getloadavg()[0]
    environment["calib_s_end"] = calibrate()
    drift = abs(environment["calib_s_end"] / environment["calib_s_start"] - 1)
    document["noisy"] = drift > 0.10
    print(
        f"calibration {environment['calib_s_start']:.4f} s -> "
        f"{environment['calib_s_end']:.4f} s"
        + ("   NOISY: the machine was not steady" if document["noisy"] else "")
    )
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.out}" + ("" if ok else "   (with failures)"))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--out", default=os.path.join(OUT, "BENCH.json"),
        help="result document of a full run",
    )
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SOURCE, "repro", "__init__.py")):
        print(f"no program to measure: {SOURCE}/repro is missing", file=sys.stderr)
        return 2
    # WALs and the soak worker's temp dirs: one directory per invocation,
    # so two runs side by side do not remove each other's.
    os.makedirs(OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
    try:
        return (driver_main if args.workload else full_main)(args, scratch)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
