"""Shared plumbing for the benchmark suite.

Every ``bench_*.py`` regenerates one of the paper's evaluation
artifacts (DESIGN.md Section 4).  The paper's claims are word, message
and round counts, so every table is a pure function of the code and
its seeds; wall-clock speed is the perf ledger's job (``perfledger/``).
Conventions:

* each bench test **asserts the paper's shape claim** (slopes,
  thresholds, orderings), so ``pytest benchmarks/`` doubles as a
  reproduction check;
* each :func:`publish` call writes one ``results/<name>.json``
  conforming to :data:`repro.obs.schema.BENCH_RESULT_SCHEMA` (scenario
  parameters, word bills, the rendered table sections, git revision)
  and prints the tables (visible with ``-s``).  EXPERIMENTS.md links
  these documents; CI regenerates them, fails if any differs from the
  committed copy and validates them with ``repro obs validate``.
"""

from __future__ import annotations

import json
import subprocess
from pathlib import Path

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


def publish(
    name: str,
    *sections: str,
    scenario: dict | None = None,
    word_bills: list[dict] | None = None,
) -> None:
    """Write the bench's schema-valid ``results/<name>.json`` and print
    its tables.

    ``scenario`` carries the bench's parameters and ``word_bills`` a
    list of :func:`word_bill` dicts; both land in the document verbatim.
    """
    document = {
        "schema_version": SCHEMA_VERSION,
        "name": name,
        "git_rev": git_rev(),
        "scenario": scenario or {},
        "word_bills": word_bills or [],
        "wall_clock": None,
        "sections": list(sections),
    }
    errors = validate_bench_result(document)
    if errors:  # a bench handing in malformed sections is a bug, not data
        raise ValueError(f"bench {name} produced an invalid result: {errors}")
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.json").write_text(json.dumps(document, indent=1))
    print(f"\n=== {name} ===\n" + "\n\n".join(sections) + "\n")
