"""The child process: one workload, measured in a fresh interpreter.

``run.py`` starts this file once per measurement (and twice more per
untraced run for ``setup_s`` alone).  It is single-threaded and closed
loop: one op in flight, the next one starts when the previous one has
returned and been verified.  The last line of standard output is one
JSON object for the parent.

Sequence: import the program, generate pass 0 and run it untimed (the
warm pass) — that is *set-up*, timed from the parent's spawn stamp to
here; then timed passes until ``--seconds`` have gone by (at least
``--min-passes``); with ``--trace 1`` the untraced part is cut to half
of ``--seconds`` and followed by a traced repeat of pass 1 and the
workload's probes.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import sys
import time


class OpTimeout(Exception):
    """An op ran past its wall-clock limit."""


def _on_alarm(signum, frame):
    raise OpTimeout("op exceeded its time limit")


def run_op(session, op, pass_index, tracer=None):
    """Run one op under its time limit; returns ``(sample, span)``.

    A sample is a plain dict.  An op that raises or times out still
    yields one — ``failed`` set, nothing else to report.
    """
    sample = {
        "pass": pass_index,
        "op_id": op.op_id,
        "kind": op.kind,
        "tag": op.tag,
        "seed": op.seed,
        "units": 1,
        "failed": 0,
        "reasons": [],
        "counts": {},
        "facts": {},
    }
    span = None
    started = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, op.limit_s)
    try:
        if tracer is None:
            outcome = session.run(op)
        else:
            outcome, span = tracer.trace(lambda: session.run(op))
    except Exception as exc:  # the run goes on; the op counts as failed
        signal.setitimer(signal.ITIMER_REAL, 0)
        sample["elapsed_s"] = time.perf_counter() - started
        sample["failed"] = 1
        sample["reasons"] = [f"{type(exc).__name__}: {exc}"]
        return sample, None
    signal.setitimer(signal.ITIMER_REAL, 0)
    failed, reasons = outcome.check()
    sample.update(
        elapsed_s=outcome.elapsed_s,
        units=outcome.units,
        failed=failed,
        reasons=reasons,
        counts=outcome.counts,
        facts=outcome.facts,
    )
    if span is not None:
        span.update(
            workload=op.workload, kind=op.kind, op_id=op.op_id, seed=op.seed
        )
    return sample, span


def run_pass(session, workload, seed, pass_index, tracer=None):
    """Run every op of one pass; returns ``(samples, spans)``."""
    from workloads import pass_ops

    ops = pass_ops(workload, seed, pass_index)
    session.begin_pass(ops)
    samples, spans = [], []
    for op in ops:
        sample, span = run_op(session, op, pass_index, tracer)
        samples.append(sample)
        if span is not None:
            spans.append(span)
    return samples, spans


def measure(workload, seed, *, seconds, min_passes, trace, scratch, spawned=None,
            setup_only=False, trace_path=None) -> dict:
    """Set up, measure and (optionally) trace one workload in this
    process.  ``spawned`` is the ``time.monotonic()`` stamp set-up is
    timed from (default: now)."""
    spawned = time.monotonic() if spawned is None else spawned
    import adapters
    import summary
    from tracing import OpTracer

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        session = adapters.Session(scratch)
        warm, _ = run_pass(session, workload, seed, 0)
        setup_s = time.monotonic() - spawned
        result = {"workload": workload, "seed": seed, "setup_s": setup_s, "warm": warm}
        if setup_only:
            return result

        untraced: list[dict] = []
        budget = seconds / 2 if trace else seconds
        begun = time.perf_counter()
        pass_index = 0
        while pass_index < min_passes or time.perf_counter() - begun < budget:
            pass_index += 1
            samples, _ = run_pass(session, workload, seed, pass_index)
            untraced.extend(samples)
        result["untraced"] = untraced
        result["timed_passes"] = pass_index

        if trace:
            first_pass = [s for s in untraced if s["pass"] == 1]
            adapters.reset_dealt_schemes()
            tracer = OpTracer(adapters.REPRO_ROOT, summary.LAYERS, adapters.WATCHED_FUNCTIONS)
            traced, spans = run_pass(session, workload, seed, 1, tracer)
            result["traced"] = traced
            result["count_mismatches"] = summary.count_mismatches(first_pass, traced)
            if trace_path is not None:
                os.makedirs(os.path.dirname(trace_path), exist_ok=True)
                with open(trace_path, "w") as handle:
                    for span in spans:
                        handle.write(json.dumps(span) + "\n")
            # No table when an op of the traced pass, or every op of one
            # kind, raised: the parent reports the run as failed.
            if len(spans) == len(traced):
                try:
                    result["per_layer"] = summary.per_layer(
                        workload, untraced, first_pass, traced, spans,
                        adapters.probes(workload, seed, scratch),
                    )
                except (statistics.StatisticsError, StopIteration, ZeroDivisionError):
                    pass
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return result
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--min-passes", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--spawned", type=float, default=None)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-path", default=None)
    args = parser.parse_args(argv)
    result = measure(
        args.workload,
        args.seed,
        seconds=args.seconds,
        min_passes=args.min_passes,
        trace=bool(args.trace),
        scratch=args.scratch,
        spawned=args.spawned,
        setup_only=args.setup_only,
        trace_path=args.trace_path,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
