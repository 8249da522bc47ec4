"""The outcome of one run, on any of the three runtimes."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.config import ProcessId, SystemConfig
from repro.errors import AgreementViolation
from repro.metrics.words import WordLedger
from repro.runtime.trace import Trace


@dataclass
class RunResult:
    """Decisions, complexity accounting, and the full trace of a run."""

    config: SystemConfig
    decisions: dict[ProcessId, Any]
    """Return value of each *correct* process's protocol generator."""

    corrupted: frozenset[ProcessId]
    """Processes that were Byzantine at any point of the run."""

    ledger: WordLedger
    trace: Trace
    ticks: int
    """Rounds the run took: the simulator's final tick, or on the
    wall-clock runtimes the last round any process reached, plus one."""

    halted_at: dict[ProcessId, int] = field(default_factory=dict)
    envelopes: tuple = ()
    """Raw sent copies as ``(receiver, envelope)`` pairs, in send order
    (populated when the simulation was created with
    ``record_envelopes=True``)."""

    truncated: bool = False
    """The run was stopped at the ``max_ticks`` horizon instead of
    terminating (``stop_on_horizon=True``, bounded model checking).
    Safety properties are meaningful on a truncated result; termination
    is not."""

    observer: Any = None
    """The :class:`~repro.obs.observer.Observer` that watched the run
    (``None`` when the simulation ran uninstrumented).  Telemetry only —
    nothing in a result's semantics depends on it."""

    recovered: frozenset[ProcessId] = frozenset()
    """Processes that crashed, replayed their WAL, and rejoined the run.
    Disjoint from ``corrupted``: a recovered process stayed honest the
    whole time, so agreement and validity still bind it — but it does
    count toward a fault plan's ``faulty`` set for word budgets."""

    elapsed: float = 0.0
    """Wall-clock seconds the run took on the asyncio/TCP runtimes
    (``0.0`` on the tick simulator, which has no wall clock)."""

    # ------------------------------------------------------------------
    # Convenience accessors used throughout tests and benchmarks
    # ------------------------------------------------------------------

    @property
    def f(self) -> int:
        """Actual number of corrupted processes in the run."""
        return len(self.corrupted)

    @property
    def correct_pids(self) -> list[ProcessId]:
        return [p for p in self.config.processes if p not in self.corrupted]

    @property
    def correct_words(self) -> int:
        """The paper's communication-complexity measure for this run."""
        return self.ledger.correct_words

    def unanimous_decision(self) -> Any:
        """The single value all correct processes decided.

        Raises
        ------
        AgreementViolation
            If correct processes decided differently (or some did not
            decide) — callers use this as the agreement check.
        """
        correct = self.correct_pids
        missing = [p for p in correct if p not in self.decisions]
        if missing:
            raise AgreementViolation(f"processes {missing} did not decide")
        first = self.decisions[correct[0]]
        for pid in correct:
            if self.decisions[pid] != first:
                raise AgreementViolation(
                    f"process {correct[0]} decided {first!r} but "
                    f"process {pid} decided {self.decisions[pid]!r}"
                )
        return first

    def fallback_was_used(self) -> bool:
        """Whether any correct process entered a fallback execution."""
        return self.trace.any("fallback_started")
