"""Shared plumbing for the benchmark suite.

Every ``bench_*.py`` regenerates one of the paper's evaluation
artifacts (DESIGN.md Section 4).  Conventions:

* each bench test **asserts the paper's shape claim** (slopes,
  thresholds, orderings), so ``pytest benchmarks/ --benchmark-only``
  doubles as a reproduction check;
* each bench **writes its table** to ``benchmarks/results/<name>.txt``
  (and prints it, visible with ``-s``) — EXPERIMENTS.md links these;
* every :func:`publish` call also writes a machine-readable
  ``results/<name>.json`` conforming to
  :data:`repro.obs.schema.BENCH_RESULT_SCHEMA` (scenario parameters,
  word bills, wall-clock percentiles, git revision) — CI validates the
  emitted documents with ``repro obs validate``;
* the ``benchmark`` fixture times one representative run so
  pytest-benchmark's wall-clock table stays meaningful.
"""

from __future__ import annotations

import json
import subprocess
import time
from pathlib import Path
from typing import Callable

from repro.obs.schema import SCHEMA_VERSION, validate_bench_result

RESULTS_DIR = Path(__file__).parent / "results"


def git_rev() -> str | None:
    """HEAD at generation time, or ``None`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


def word_bill(label: str, result) -> dict:
    """One schema-shaped word bill from a ``RunResult`` (any runtime)."""
    return {
        "label": label,
        "n": result.config.n,
        "t": result.config.t,
        "f": result.f,
        "words": result.ledger.correct_words,
        "messages": result.ledger.correct_messages,
        "signatures": result.ledger.signature_count(),
        "fallback": result.fallback_was_used(),
    }


def time_percentiles(fn: Callable[[], object], repeats: int = 5) -> dict:
    """Schema-shaped wall-clock section: run ``fn`` ``repeats`` times.

    With few repeats the percentiles are coarse by construction (p50 is
    the median sample, p90/p99 the max) — good enough to spot order-of-
    magnitude regressions, which is all the JSON trail is for.
    """
    if repeats < 1:
        # The schema requires wall_clock.repeats >= 1; a bench with no
        # timed runs should pass wall_clock=None instead of an empty
        # percentile block (which used to die here with an IndexError).
        raise ValueError(
            "time_percentiles needs repeats >= 1; pass wall_clock=None "
            f"to publish() for an untimed run (got repeats={repeats})"
        )
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    samples.sort()

    def pct(q: float) -> float:
        return samples[min(int(q * len(samples)), len(samples) - 1)]

    return {
        "unit": "seconds",
        "repeats": repeats,
        "percentiles": {"p50": pct(0.50), "p90": pct(0.90), "p99": pct(0.99)},
    }


def publish(
    name: str,
    *sections: str,
    scenario: dict | None = None,
    word_bills: list[dict] | None = None,
    wall_clock: dict | None = None,
) -> str:
    """Write the bench's report to ``results/<name>.txt`` (and a
    schema-valid ``results/<name>.json``) and return the text body.

    ``scenario`` carries the bench's parameters, ``word_bills`` a list
    of :func:`word_bill` dicts, ``wall_clock`` a
    :func:`time_percentiles` section — all optional, all landing in the
    JSON document verbatim.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    body = "\n\n".join(sections) + "\n"
    (RESULTS_DIR / f"{name}.txt").write_text(body)
    document = {
        "schema_version": SCHEMA_VERSION,
        "name": name,
        "git_rev": git_rev(),
        "scenario": scenario or {},
        "word_bills": word_bills or [],
        "wall_clock": wall_clock,
        "sections": list(sections),
    }
    errors = validate_bench_result(document)
    if errors:  # a bench handing in malformed sections is a bug, not data
        raise ValueError(f"bench {name} produced an invalid result: {errors}")
    (RESULTS_DIR / f"{name}.json").write_text(json.dumps(document, indent=1))
    print(f"\n=== {name} ===\n{body}")
    return body
