"""The run auditor.

Given a :class:`~repro.runtime.result.RunResult`, check every property
the paper's theorems promise and report violations as data:

* **Agreement** — no two correct processes decided differently
  (Theorem 4 / 5 / 7 via Lemmas 12, 20, 26);
* **Termination** — every correct process decided (Lemmas 21, 27);
* **Validity** — pluggable: an expected value (BB validity / strong
  unanimity) or a predicate plus bottom-handling (unique validity);
* **Decide-once** — at most one ``decided``-class event per correct
  process (Lemmas 23, 29);
* **Lemma 6** — no fallback activation when ``f < (n-t-1)/2`` *and*
  the corruption set was silent-style from the start (callers opt in,
  since crafty adversaries may legitimately push runs into fallback at
  smaller ``f``);
* **Word budget** — measured words within a caller-supplied bound,
  e.g. :func:`adaptive_word_budget`;
* **Fallback sync** — Section 6's echo guarantee (Lemmas 17/18):
  whenever one correct process runs the fallback, all of them do,
  within ``delta`` of each other (opt in; the model checker's
  fallback-echo mutant falsifies exactly this);
* **Adaptive silence** — the mechanism behind ``O(n(f+1))``: a leader
  that has decided keeps its later phases silent (opt in; falsified by
  the non-silent-leaders mutant).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.core.values import BOTTOM, UNDECIDED
from repro.runtime.result import RunResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.plan import FaultPlan

DECISION_EVENTS = (
    "decided",
    "wba_decided_in_phase",
    "wba_decided_by_help",
    "wba_decided_by_fallback",
    "sba_decided_fast",
)


@dataclass(frozen=True)
class Violation:
    """One property violation found during verification."""

    kind: str
    detail: str


@dataclass
class Report:
    """The verifier's findings for one run."""

    violations: list[Violation] = field(default_factory=list)
    checked: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, kind: str, detail: str) -> None:
        self.violations.append(Violation(kind=kind, detail=detail))

    def summary(self) -> str:
        if self.ok:
            return f"OK ({', '.join(self.checked)})"
        lines = [f"{len(self.violations)} violation(s):"]
        lines += [f"  [{v.kind}] {v.detail}" for v in self.violations]
        return "\n".join(lines)


def adaptive_word_budget(constant: float = 30.0) -> Callable[[RunResult], float]:
    """The paper's O(n(f+1)) bound with an explicit constant."""

    def budget(result: RunResult) -> float:
        return constant * result.config.n * (result.f + 1)

    return budget


def quadratic_word_budget(constant: float = 30.0) -> Callable[[RunResult], float]:
    """The worst-case O(n^2) bound with an explicit constant."""

    def budget(result: RunResult) -> float:
        return constant * result.config.n**2

    return budget


def verify_under_plan(
    result: RunResult,
    plan: "FaultPlan",
    *,
    word_constant: float = 30.0,
    **kwargs: Any,
) -> Report:
    """Audit a run that executed under a fault-injection plan.

    Same checklist as :func:`verify_run`, with the word budget adjusted
    for the plan's fault model: omission-faulty senders (``plan.faulty``)
    are indistinguishable from intermittently silent corrupted processes,
    so they count toward the effective failure number ``f`` in the
    paper's ``O(n(f+1))`` budget.  Duplication, bounded delay, inbox
    reordering, and connection resets are *model-legal* perturbations —
    the synchronous network was always allowed to do that — so they
    tighten nothing: every safety property must hold verbatim.

    Audits runs of all three runtimes alike: the asyncio and TCP
    transports return the simulator's :class:`RunResult`.
    """
    effective_f = len(frozenset(result.corrupted) | plan.faulty)

    def budget(r: RunResult) -> float:
        return word_constant * r.config.n * (effective_f + 1)

    kwargs.setdefault("word_budget", budget)
    return verify_run(result, **kwargs)


def verify_run(
    result: RunResult,
    *,
    expected_decision: Any = ...,
    validity: Callable[[Any], bool] | None = None,
    allow_bottom: bool = False,
    word_budget: Callable[[RunResult], float] | None = None,
    check_lemma6: bool = False,
    check_fallback_sync: bool = False,
    fallback_sync_delta: int = 1,
    check_adaptive_silence: bool = False,
) -> Report:
    """Audit ``result``; see the module docstring for the checklist.

    Parameters
    ----------
    expected_decision:
        If given (anything other than the default ellipsis), every
        correct process must have decided exactly this value — the BB
        validity / strong-unanimity check.
    validity:
        Unique-validity style check: the common decision must satisfy
        the predicate, or be ``⊥`` if ``allow_bottom``.
    word_budget:
        Callable mapping the result to a word ceiling.
    check_lemma6:
        Assert no fallback ran when ``f < (n-t-1)/2``.  Only meaningful
        when the adversary blocks progress by silence; protocol-aware
        adversaries may legitimately trigger earlier fallbacks.
    check_fallback_sync:
        Section 6's certificate-echo guarantee (Lemmas 17/18): if *any*
        correct process entered the fallback, *every* correct process
        must, and their entry ticks may differ by at most
        ``fallback_sync_delta``.  Not meaningful on truncated runs
        (laggards may simply not have entered yet).
    check_adaptive_silence:
        The adaptivity mechanism behind ``O(n(f+1))``: once a correct
        process has decided, it never opens a later phase as a
        non-silent leader.
    """
    report = Report()
    correct = result.correct_pids

    # Termination.
    report.checked.append("termination")
    undecided = [
        pid
        for pid in correct
        if pid not in result.decisions or result.decisions[pid] == UNDECIDED
    ]
    for pid in undecided:
        report.add("termination", f"correct process {pid} did not decide")

    # Agreement.
    report.checked.append("agreement")
    decided = [
        (pid, result.decisions[pid])
        for pid in correct
        if pid in result.decisions
    ]
    if decided:
        first_pid, first_value = decided[0]
        for pid, value in decided[1:]:
            if value != first_value:
                report.add(
                    "agreement",
                    f"process {first_pid} decided {first_value!r} but "
                    f"process {pid} decided {value!r}",
                )

    # Validity.
    if expected_decision is not ...:
        report.checked.append("expected-decision")
        for pid, value in decided:
            if value != expected_decision:
                report.add(
                    "validity",
                    f"process {pid} decided {value!r}, expected "
                    f"{expected_decision!r}",
                )
    if validity is not None and decided:
        report.checked.append("unique-validity")
        value = decided[0][1]
        if value == BOTTOM:
            if not allow_bottom:
                report.add("validity", "decided ⊥ where ⊥ is not allowed")
        elif not validity(value):
            report.add("validity", f"decision {value!r} fails the predicate")

    # Decide-at-most-once (Lemma 23 / 29): the terminal `decided` event
    # fires exactly once per correct process per protocol *instance*.
    # Instances are identified by session when the event carries one —
    # a composition like SMR legitimately runs one BB per slot under the
    # same scope path, distinguished only by session (the soak fleet
    # flagged multi-slot runs as double-decides before sessions were
    # stamped into the event).
    report.checked.append("decide-once")
    per_process_scope: dict[tuple, int] = {}
    for event in result.trace.named("decided"):
        if event.pid in result.corrupted:
            continue
        key = (event.pid, event.scope, event.get("session"))
        per_process_scope[key] = per_process_scope.get(key, 0) + 1
    for (pid, scope, session), count in per_process_scope.items():
        if count > 1:
            where = scope if session is None else f"{scope} [{session}]"
            report.add(
                "decide-once",
                f"process {pid} emitted {count} decisions in scope {where}",
            )

    # Lemma 6.
    if check_lemma6:
        report.checked.append("lemma6")
        threshold = result.config.fallback_failure_threshold
        if result.f < threshold and result.fallback_was_used():
            report.add(
                "lemma6",
                f"fallback ran with f={result.f} < (n-t-1)/2={threshold}",
            )

    # Fallback synchronization (Lemmas 17/18).
    if check_fallback_sync:
        report.checked.append("fallback-sync")
        entered: dict[Any, int] = {}
        for event in result.trace.named("fallback_started"):
            if event.pid not in result.corrupted and event.pid not in entered:
                entered[event.pid] = event.tick
        if entered:
            for pid in correct:
                if pid not in entered:
                    report.add(
                        "fallback-sync",
                        f"process {pid} never entered the fallback while "
                        f"processes {sorted(entered)} did",
                    )
            skew = max(entered.values()) - min(entered.values())
            if skew > fallback_sync_delta:
                report.add(
                    "fallback-sync",
                    f"fallback entry ticks {entered} spread over {skew} "
                    f"ticks, allowed delta is {fallback_sync_delta}",
                )

    # Adaptive silence: decided leaders stay silent.
    if check_adaptive_silence:
        report.checked.append("adaptive-silence")
        decided_at: dict[Any, int] = {}
        for event in result.trace.events:
            if (
                event.name in DECISION_EVENTS
                and event.name != "decided"  # terminal marker, fires late
                and event.pid not in result.corrupted
            ):
                tick = decided_at.get(event.pid, event.tick)
                decided_at[event.pid] = min(tick, event.tick)
        for event in result.trace.named("phase_non_silent"):
            pid = event.pid
            if pid in result.corrupted:
                continue
            if pid in decided_at and decided_at[pid] < event.tick:
                report.add(
                    "adaptive-silence",
                    f"process {pid} opened a phase as leader at tick "
                    f"{event.tick} despite deciding at tick {decided_at[pid]}",
                )

    # Word budget.
    if word_budget is not None:
        report.checked.append("word-budget")
        ceiling = word_budget(result)
        if result.correct_words > ceiling:
            report.add(
                "word-budget",
                f"{result.correct_words} words exceed budget {ceiling:.0f}",
            )

    return report
