"""The schedule-space explorer.

A run of the tick simulator is a pure function of its decision sequence
(see :mod:`repro.mc.choices`), which turns model checking into tree
search: each logged choice point is a node, its options are edges, and
a run under :class:`~repro.mc.choices.ScriptedChoices` with prefix
``p`` explores the subtree below ``p`` along the all-zeros (canonical)
continuation.

:func:`explore_exhaustive` is depth-first search over decision
prefixes.  After running prefix ``p`` the full decision log is known;
for every choice point at or past ``|p|`` the unexplored siblings
``chosen+1 .. options-1`` are pushed (deepest first, so the search is
depth-first in the tree).  When the stack empties, every schedule in
the bounded space has been executed — that exhaustiveness is what turns
"no violation found" into a *proof over the bounded space*.

**State-fingerprint pruning** cuts confluent branches: a per-tick hook
digests the simulation state; if the digest was seen before (same tick,
same state), the continuation is a subtree already explored, and the
run is aborted via :class:`PruneRun`.  Two soundness rules:

* pruning only fires in the *free region* — once the scripted prefix is
  fully consumed.  Inside the prefix the script still mandates
  divergence from wherever the earlier visit went, so an equal
  fingerprint does not imply an equal future.  The ``"behavior"`` mode
  does not even digest a tick inside the prefix: a prefix is an
  ancestor run's decisions plus one sibling, so every tick before the
  script ends replays a state that ancestor already recorded (the root
  run has no prefix; the argument goes by induction down the DFS).
* the digest must capture everything the future depends on.  The
  ``"behavior"`` mode digests the visible machine state (inboxes,
  pending deliveries, corruption state, decisions, trace, budget
  counters) but *not* protocol-generator internals — sound for the
  protocols here, whose generators are functions of their emitted
  events and pending messages, but a protocol with silent internal
  state could in principle alias.  The ``"history"`` mode chains
  digests over the whole past, never merges distinct histories, and is
  sound unconditionally (it only collapses replays of the same prefix,
  e.g. permutations the space deduplicated); ``None`` disables pruning.

Siblings of a pruned run's choice points are still pushed — pruning
skips a *continuation*, never the branches that diverge before it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import ModelCheckError
from repro.mc.choices import ChoiceSource, LoggedChoice, ScriptedChoices, SeededChoices
from repro.mc.scenario import Scenario
from repro.runtime.result import RunResult
from repro.runtime.scheduler import Simulation
from repro.verify.checker import Report


class PruneRun(Exception):
    """Raised by the fingerprint hook to abort a run whose continuation
    was already explored.  Internal to this module."""


# ----------------------------------------------------------------------
# Running one schedule
# ----------------------------------------------------------------------


@dataclass
class ScheduleOutcome:
    """One executed (or pruned) schedule."""

    log: list[LoggedChoice]
    """The decision log up to the end of the run (or the prune point)."""
    result: RunResult | None
    """``None`` when the run was pruned."""
    report: Report | None
    """``None`` when the run was pruned."""
    pruned: bool = False

    @property
    def decisions(self) -> list[int]:
        return [entry.chosen for entry in self.log]


def run_schedule(
    scenario: Scenario,
    script: tuple[int, ...] | list[int] = (),
    *,
    strict: bool = False,
    source: ChoiceSource | None = None,
    fingerprinter: "_Fingerprinter | None" = None,
) -> ScheduleOutcome:
    """Execute one schedule of ``scenario``.

    Decisions come from ``source`` if given (random walk), else from a
    :class:`ScriptedChoices` over ``script`` (DFS prefixes, replay).
    """
    choices = (
        source
        if source is not None
        else ScriptedChoices(scenario.space, script, strict=strict)
    )
    with scenario.active():
        simulation = scenario.build(choices)
        if fingerprinter is not None:
            simulation.tick_hook = fingerprinter.hook(choices)
        try:
            result = simulation.run()
        except PruneRun:
            return ScheduleOutcome(log=list(choices.log), result=None,
                                   report=None, pruned=True)
    report = scenario.evaluate(result)
    return ScheduleOutcome(log=list(choices.log), result=result, report=report)


# ----------------------------------------------------------------------
# State fingerprints
# ----------------------------------------------------------------------


class _Fingerprinter:
    """Builds per-run tick hooks sharing one seen-fingerprint set."""

    def __init__(self, mode: str) -> None:
        if mode not in ("behavior", "history"):
            raise ModelCheckError(
                f"prune mode must be 'behavior' or 'history', got {mode!r}"
            )
        self.mode = mode
        self.seen: set[tuple[int, int]] = set()

    def hook(self, choices: ChoiceSource):
        chained = 0
        history = self.mode == "history"

        def tick_hook(simulation: Simulation, inboxes: dict) -> None:
            nonlocal chained
            free = getattr(choices, "in_free_region", False)
            if not (free or history):
                # Inside the script a tick reproduces a state an
                # ancestor run already recorded (module doc).
                return
            digest = _state_digest(simulation, inboxes, choices)
            if history:
                chained = hash((chained, digest))
                digest = chained
            key = (simulation.tick, digest)
            if key in self.seen:
                if free:
                    raise PruneRun()
            else:
                self.seen.add(key)

        return tick_hook


def _wheel(
    simulation: Simulation, payload_repr: Callable[[object], str]
) -> tuple:
    """The delivery wheel, one multiset of wire copies per slot.  Copy
    order is canonicalized away: delivery sorts each slot by (delay,
    sender), so only the multiset matters for the future.  A fan-out
    entry counts as its copies, so the key does not depend on which path
    filed them."""
    return tuple(sorted(
        (tick, tuple(sorted(
            (delay, sender, (to,), sent_at, payload_repr(payload))
            for delay, sender, recipients, payload, sent_at in entries
            for to in recipients
        )))
        for tick, entries in simulation._due.items()
    ))


def _state_digest(
    simulation: Simulation, inboxes: dict, choices: ChoiceSource
) -> int:
    """Hash of everything the run's future depends on (module doc).

    Payloads and trace events are keyed by ``repr`` — every wire payload
    and event in this repo is a frozen dataclass of plain values, so
    reprs are deterministic and equality-faithful; the run's choice
    source memoizes them per payload object.
    """
    key = choices.envelope_key
    return hash((
        tuple(sorted(
            (pid, tuple(map(key, box))) for pid, box in inboxes.items()
        )),
        # Under lockstep the hook runs after slot ``tick`` is popped and
        # before anyone sends into ``tick + 1``: the wheel is empty
        # there, and only paced runs walk it.
        _wheel(simulation, choices.payload_repr) if simulation._paced else (),
        # Behavior reprs (dataclasses), not just pids: adversary
        # *parameters* chosen at build time — which victim a dealer
        # targets — and mutable behavior flags live inside these objects
        # and are otherwise invisible until they act.
        tuple(sorted(
            (pid, repr(behavior))
            for pid, behavior in simulation._behaviors.items()
        )),
        tuple(sorted(simulation.corrupted_now)),
        tuple(sorted(
            (tick, tuple(sorted(
                (pid, repr(behavior)) for pid, behavior in entries
            )))
            for tick, entries in simulation._scheduled_corruptions.items()
        )),
        choices.drops_used,
        # Paced-round state (round index, timeout, retries, buffered
        # deliveries per process) — () under lockstep.
        # Without it, two psync states with equal wheels but different
        # round clocks would alias and pruning would be unsound.
        simulation.pacer_fingerprint(key),
        tuple(sorted(
            (pid, repr(value)) for pid, value in simulation._decisions.items()
        )),
        tuple(sorted(simulation._halted_at.items())),
        simulation.ledger.correct_words,
        # Incremental hash-chain over the trace: the old per-tick repr
        # of every event made fingerprinting quadratic in run length.
        simulation.trace.fingerprint(),
    ))


# ----------------------------------------------------------------------
# Exploration
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Counterexample:
    """A decision sequence whose run violates a checked property."""

    scenario: str
    params: dict[str, Any]
    decisions: tuple[int, ...]
    kinds: tuple[str, ...]
    """Violation kinds, the reproduction target for shrinking/replay."""
    summary: str
    truncated: bool


@dataclass
class ExplorationStats:
    runs: int = 0
    terminal: int = 0
    """Runs executed to their end (not pruned)."""
    pruned: int = 0
    truncated: int = 0
    """Terminal runs stopped at the tick horizon."""
    violations: int = 0
    distinct_states: int = 0
    """Fingerprints recorded (0 when pruning is disabled)."""
    max_depth: int = 0
    """Longest decision sequence encountered."""


@dataclass
class ExplorationResult:
    stats: ExplorationStats
    counterexamples: list[Counterexample] = field(default_factory=list)
    complete: bool = False
    """The bounded space was exhausted — "no counterexample" is a proof
    over it.  False when ``max_runs`` hit or ``stop_at_first`` fired."""

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def _counterexample(scenario: Scenario, outcome: ScheduleOutcome) -> Counterexample:
    return Counterexample(
        scenario=scenario.name,
        params=dict(scenario.params),
        decisions=tuple(outcome.decisions),
        kinds=tuple(sorted({v.kind for v in outcome.report.violations})),
        summary=outcome.report.summary(),
        truncated=outcome.result.truncated,
    )


def explore_exhaustive(
    scenario: Scenario,
    *,
    max_runs: int = 100_000,
    prune: str | None = "behavior",
    stop_at_first: bool = False,
) -> ExplorationResult:
    """DFS over the scenario's full bounded decision space.

    ``prune`` selects the fingerprint mode (module doc); ``None``
    disables pruning.  ``stop_at_first`` returns at the first
    counterexample — the mutant harness's mode.
    """
    stats = ExplorationStats()
    fingerprinter = _Fingerprinter(prune) if prune is not None else None
    counterexamples: list[Counterexample] = []
    stack: list[tuple[int, ...]] = [()]
    stopped = False

    while stack:
        if stats.runs >= max_runs:
            stopped = True
            break
        prefix = stack.pop()
        outcome = run_schedule(scenario, prefix, fingerprinter=fingerprinter)
        stats.runs += 1
        log = outcome.log
        # Unexplored siblings of every choice point in the free region.
        # Deepest-first push order makes the search depth-first.
        for j in range(len(prefix), len(log)):
            entry = log[j]
            base = [log[i].chosen for i in range(j)]
            for option in range(entry.chosen + 1, entry.point.options):
                stack.append(tuple(base + [option]))
        if outcome.pruned:
            stats.pruned += 1
            continue
        stats.terminal += 1
        stats.max_depth = max(stats.max_depth, len(log))
        if outcome.result.truncated:
            stats.truncated += 1
        if not outcome.report.ok:
            stats.violations += 1
            counterexamples.append(_counterexample(scenario, outcome))
            if stop_at_first:
                stopped = True
                break

    if fingerprinter is not None:
        stats.distinct_states = len(fingerprinter.seen)
    return ExplorationResult(
        stats=stats,
        counterexamples=counterexamples,
        complete=not stack and not stopped,
    )


def explore_random(
    scenario: Scenario,
    *,
    runs: int = 100,
    seed: int = 0,
    stop_at_first: bool = True,
) -> ExplorationResult:
    """Guided random walk: ``runs`` seeded samples of the space.

    Each walk uses :class:`SeededChoices` with seed ``seed + i``; a
    violating walk's *logged decisions* become the counterexample, so it
    shrinks and replays exactly like a DFS-found one.  Never a proof
    (``complete`` stays ``False``) — the mode for spaces too large to
    exhaust.
    """
    stats = ExplorationStats()
    counterexamples: list[Counterexample] = []
    for i in range(runs):
        source = SeededChoices(scenario.space, seed + i)
        outcome = run_schedule(scenario, source=source)
        stats.runs += 1
        stats.terminal += 1
        stats.max_depth = max(stats.max_depth, len(outcome.log))
        if outcome.result.truncated:
            stats.truncated += 1
        if not outcome.report.ok:
            stats.violations += 1
            counterexamples.append(_counterexample(scenario, outcome))
            if stop_at_first:
                break
    return ExplorationResult(stats=stats, counterexamples=counterexamples)
