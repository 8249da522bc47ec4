"""Counterexample shrinking and the JSON replay artifact.

A raw counterexample from the explorer is a decision sequence plus the
violation kinds its run produced.  Because option 0 is always the
canonical continuation (identity inbox order, no drop, no duplicate, no
delay, first adversary parameter), *zeroing* a decision is the natural
"remove this perturbation" move — so shrinking is ddmin over the
sequence's nonzero positions, followed by per-position value
minimization and trailing-zero truncation.  The shrunk sequence
reproduces (at least) the original violation kinds and is typically a
handful of nonzero entries: the schedule decisions that *matter*.

The replay artifact is plain JSON::

    {"format": "repro-mc-replay/1",
     "scenario": "weak-ba",
     "params": {...},                  # rebuilds the scenario exactly
     "decisions": [0, 3, 1],
     "violations": [{"kind": ..., "detail": ...}, ...],
     "choice_labels": ["order(2, 7)", ...]}   # human documentation

``scenario``/``params`` feed :func:`~repro.mc.scenario.make_scenario`,
``decisions`` feed a :class:`~repro.mc.choices.ScriptedChoices` (with
the canonical all-zeros continuation past the end, since shrinking
strips trailing zeros) — no pickling, no closures, re-executable by any
later checkout that keeps the scenario registry stable.  :func:`replay`
verifies the recorded violations recur and raises
:class:`~repro.errors.ModelCheckError` on divergence (as does a script
entry that no longer fits its choice point's arity).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable

from repro.errors import ModelCheckError
from repro.mc.explore import Counterexample, ScheduleOutcome, run_schedule
from repro.mc.scenario import Scenario, make_scenario

REPLAY_FORMAT = "repro-mc-replay/1"


# ----------------------------------------------------------------------
# Shrinking
# ----------------------------------------------------------------------


@dataclass
class ShrinkResult:
    decisions: tuple[int, ...]
    original: tuple[int, ...]
    kinds: tuple[str, ...]
    tests: int
    """Schedules executed while shrinking."""


def _reproduces(
    scenario: Scenario, decisions: Iterable[int], kinds: frozenset[str]
) -> ScheduleOutcome | None:
    outcome = run_schedule(scenario, list(decisions))
    if outcome.report is None:
        return None
    if kinds <= {v.kind for v in outcome.report.violations}:
        return outcome
    return None


def shrink(scenario: Scenario, counterexample: Counterexample) -> ShrinkResult:
    """Minimize ``counterexample.decisions`` while preserving its
    violation kinds; see the module docstring for the strategy."""
    kinds = frozenset(counterexample.kinds)
    tests = 0

    def test(candidate: list[int]) -> bool:
        nonlocal tests
        tests += 1
        return _reproduces(scenario, candidate, kinds) is not None

    best = list(counterexample.decisions)
    if not test(best):
        raise ModelCheckError(
            f"counterexample does not reproduce kinds {sorted(kinds)}: "
            f"{best}"
        )

    # Phase 1: ddmin over the nonzero positions (zeroing a position
    # restores the canonical choice there).
    def applied(keep: set[int]) -> list[int]:
        return [d if i in keep else 0 for i, d in enumerate(best)]

    nonzero = [i for i, d in enumerate(best) if d]
    granularity = 2
    while nonzero:
        chunk_size = max(1, len(nonzero) // granularity)
        chunks = [
            nonzero[i : i + chunk_size]
            for i in range(0, len(nonzero), chunk_size)
        ]
        reduced = False
        for chunk in chunks:
            keep = [i for i in nonzero if i not in chunk]
            if test(applied(set(keep))):
                nonzero = keep
                granularity = max(granularity - 1, 2)
                reduced = True
                break
        if not reduced:
            if granularity >= len(nonzero):
                break
            granularity = min(len(nonzero), granularity * 2)
    best = applied(set(nonzero))

    # Phase 2: minimize surviving values toward the canonical option.
    for i in nonzero:
        for smaller in range(1, best[i]):
            candidate = list(best)
            candidate[i] = smaller
            if test(candidate):
                best = candidate
                break

    # Phase 3: drop the trailing canonical region (non-strict scripts
    # default to 0 past the end, so trailing zeros are pure noise).
    while best and best[-1] == 0:
        best.pop()

    return ShrinkResult(
        decisions=tuple(best),
        original=tuple(counterexample.decisions),
        kinds=tuple(sorted(kinds)),
        tests=tests,
    )


# ----------------------------------------------------------------------
# Replay artifacts
# ----------------------------------------------------------------------


def replay_artifact(
    scenario: Scenario, decisions: Iterable[int]
) -> dict[str, Any]:
    """Build the JSON artifact for ``decisions`` (re-running them once
    to record the violations and human-readable choice labels)."""
    decisions = list(decisions)
    outcome = run_schedule(scenario, decisions)
    if outcome.report is None:
        raise ModelCheckError("cannot build an artifact for a pruned run")
    return {
        "format": REPLAY_FORMAT,
        "scenario": scenario.name,
        "params": dict(scenario.params),
        "decisions": decisions,
        "violations": [
            {"kind": v.kind, "detail": v.detail}
            for v in outcome.report.violations
        ],
        "choice_labels": [
            f"{entry.point.kind}{entry.point.coords}={entry.chosen}"
            f"/{entry.point.options}"
            for entry in outcome.log
        ],
    }


def save_replay(path: str | Path, artifact: dict[str, Any]) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(artifact, indent=2, sort_keys=True) + "\n")
    return path


_ARTIFACT_KEYS = ("scenario", "params", "decisions", "violations")


def load_replay(path: str | Path) -> dict[str, Any]:
    """Read an artifact; a torn file, a missing key or a param its
    scenario does not take raises :class:`~repro.errors.ModelCheckError`
    naming ``path``."""
    try:
        artifact = json.loads(Path(path).read_text())
    except (OSError, ValueError) as error:
        raise ModelCheckError(f"{path}: unreadable replay artifact: {error}") from None
    found = artifact.get("format") if isinstance(artifact, dict) else None
    if found != REPLAY_FORMAT:
        raise ModelCheckError(
            f"{path}: unsupported replay format {found!r} "
            f"(expected {REPLAY_FORMAT})"
        )
    try:
        _scenario_of(artifact)
    except ModelCheckError as error:
        raise ModelCheckError(f"{path}: {error}") from None
    return artifact


def _scenario_of(artifact: dict[str, Any]) -> Scenario:
    missing = [key for key in _ARTIFACT_KEYS if key not in artifact]
    if missing:
        raise ModelCheckError(f"replay artifact has no {missing[0]!r} key")
    return make_scenario(artifact["scenario"], **artifact["params"])


def replay(artifact: dict[str, Any], *, verify: bool = True) -> ScheduleOutcome:
    """Re-execute an artifact's schedule from its (name, params) pair.

    With ``verify`` (default), the recorded violation kinds must recur
    exactly; divergence — like a missing key or an unknown param —
    raises :class:`~repro.errors.ModelCheckError`.
    """
    scenario = _scenario_of(artifact)
    outcome = run_schedule(scenario, list(artifact["decisions"]))
    if verify:
        recorded = sorted({v["kind"] for v in artifact["violations"]})
        observed = sorted({v.kind for v in outcome.report.violations})
        if recorded != observed:
            raise ModelCheckError(
                f"replay diverged: artifact records violations {recorded}, "
                f"run produced {observed}"
            )
    return outcome
