"""System-wide configuration and quorum arithmetic.

The paper (Section 2) considers a static set of ``n`` processes with
resilience ``n = 2t + 1`` against an adaptive adversary corrupting up to
``t`` processes, of which ``0 <= f <= t`` are actually corrupted in a run.

This module centralizes every threshold the protocols rely on:

* ``t + 1``                  -- at least one correct process among any
  ``t + 1`` (used for idk-certificates and fallback certificates);
* ``ceil((n + t + 1) / 2)``  -- the paper's key quorum (Section 6): two
  such quorums intersect in at least one *correct* process, and the
  quorum is reachable whenever ``f < (n - t - 1) / 2``;
* ``(n - t - 1) / 2``        -- the fallback threshold: below it the
  adaptive path always succeeds (Lemma 6).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.plan import FaultPlan
    from repro.obs.observer import Observer
    from repro.recovery.manager import RecoveryManager
    from repro.runtime.synchrony import PartialSynchrony

ProcessId = int
"""Processes are identified by integers ``0 .. n-1``."""


def derive_rng(seed: int, tag: int) -> random.Random:
    """Derive an independent deterministic RNG stream from one run seed.

    Every randomized subsystem (inbox perturbation, the fault-injection
    layer, adversary placement) draws from its own ``seed ^ tag`` stream
    so that all perturbations of a run are reproducible from the single
    run seed, and adding a consumer never shifts another's stream.

    >>> derive_rng(7, 0x1B0C).random() == derive_rng(7, 0x1B0C).random()
    True
    >>> derive_rng(7, 0x1B0C).random() == derive_rng(8, 0x1B0C).random()
    False
    """
    return random.Random(seed ^ tag)


@dataclass(frozen=True)
class SystemConfig:
    """Static parameters of one protocol deployment.

    Parameters
    ----------
    n:
        Total number of processes.
    t:
        Maximum number of processes the adversary may corrupt.  The
        paper's protocols require optimal resilience ``n = 2t + 1``; we
        additionally accept any ``n >= 2t + 1`` (the reductions in
        Section 5 only need ``n >= 2t + 1``), and reject anything less.

    Example
    -------
    >>> config = SystemConfig.with_optimal_resilience(7)
    >>> config.t, config.small_quorum, config.commit_quorum
    (3, 4, 6)
    >>> config.fallback_failure_threshold   # Lemma 6's bound
    1.5
    >>> config.commit_quorum_reachable(1), config.commit_quorum_reachable(2)
    (True, False)
    """

    n: int
    t: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigurationError(f"n must be positive, got {self.n}")
        if self.t < 0:
            raise ConfigurationError(f"t must be non-negative, got {self.t}")
        if self.n < 2 * self.t + 1:
            raise ConfigurationError(
                f"resilience requires n >= 2t + 1; got n={self.n}, t={self.t}"
            )

    # ------------------------------------------------------------------
    # Derived thresholds
    # ------------------------------------------------------------------

    @property
    def processes(self) -> range:
        """All process ids, ``0 .. n-1``."""
        return range(self.n)

    @property
    def small_quorum(self) -> int:
        """``t + 1`` — guaranteed to contain at least one correct process."""
        return self.t + 1

    @property
    def commit_quorum(self) -> int:
        """``ceil((n + t + 1) / 2)`` — the paper's intersecting quorum.

        Any two sets of this size drawn from ``n`` processes intersect in
        at least ``n + t + 1 - n = t + 1`` processes, hence in at least
        one correct process (Section 6, "first key observation").
        """
        return math.ceil((self.n + self.t + 1) / 2)

    @property
    def full_quorum(self) -> int:
        """``n`` — used by Algorithm 5's decide certificate."""
        return self.n

    @property
    def fallback_failure_threshold(self) -> float:
        """``(n - t - 1) / 2`` — Lemma 6's bound.

        If the actual failure count satisfies ``f < (n - t - 1) / 2`` the
        weak-BA fallback is never executed.
        """
        return (self.n - self.t - 1) / 2

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def leader_of_phase(self, j: int) -> ProcessId:
        """Rotating-leader rule ``leader <- p_{j mod n}`` (Alg. 2/4 line 14/30)."""
        return j % self.n

    def phases_led_by(self, pid: ProcessId, phases: int) -> range:
        """The phases ``j`` in ``1..phases`` with ``leader_of_phase(j) ==
        pid`` — the only ones in which ``pid`` may speak unprompted."""
        return range(pid or self.n, phases + 1, self.n)

    def commit_quorum_reachable(self, f: int) -> bool:
        """Whether ``n - f`` correct processes suffice for the commit quorum."""
        return self.n - f >= self.commit_quorum

    def validate_failures(self, f: int) -> None:
        """Raise unless ``0 <= f <= t``."""
        if not 0 <= f <= self.t:
            raise ConfigurationError(
                f"actual failures must satisfy 0 <= f <= t={self.t}, got {f}"
            )

    @classmethod
    def with_optimal_resilience(cls, n: int) -> "SystemConfig":
        """Build a config with the largest tolerated ``t`` for ``n`` (``n=2t+1``).

        ``n`` must be odd so that ``n = 2t + 1`` holds exactly, matching
        the paper's model.
        """
        if n < 1 or n % 2 == 0:
            raise ConfigurationError(
                f"optimal resilience n = 2t + 1 needs odd n >= 1, got {n}"
            )
        return cls(n=n, t=(n - 1) // 2)


@dataclass(frozen=True)
class RunParameters:
    """Per-run knobs shared by the protocol drivers and benchmarks.

    Attributes
    ----------
    seed:
        Seed for all randomized choices in a simulation (adversary
        placement, message ordering where unspecified).  Two runs with
        identical configuration and seed are bit-identical.  The
        ``run_*`` drivers seed the run from their own ``seed=``
        argument; a non-zero value here that differs from it raises
        :class:`~repro.errors.ConfigurationError`.
    num_phases:
        Number of rotating-leader phases executed by Algorithm 1/3.  The
        paper's prose (and Lemma 6) use ``n``; the pseudocode of
        Algorithm 3 says ``t + 1`` (see DESIGN.md fidelity note 1).
        ``None`` selects the default, ``n``.
    max_ticks:
        Safety horizon for the simulator; a run exceeding it raises
        :class:`~repro.errors.TerminationViolation`.
    fault_plan:
        Optional :class:`~repro.faults.plan.FaultPlan` injected between
        protocol sends and delivery (drops, duplicates, sub-``delta``
        delays, inbox reordering).  ``None`` runs the pristine network.
    observer:
        Optional :class:`~repro.obs.observer.Observer` threaded into the
        simulation for metrics/events/timing.  Telemetry only — a run's
        outcome is identical with or without one.
    recovery:
        Optional :class:`~repro.recovery.manager.RecoveryManager` giving
        every correct process a write-ahead log.  Required when the
        fault plan schedules crash/restart faults — a crashed process
        can only rejoin by replaying durable state.
    synchrony:
        ``None`` (the default) is the paper's lockstep ``delta=1``; a
        :class:`~repro.runtime.synchrony.PartialSynchrony` governs
        delivery ticks and round advancement under GST partial
        synchrony, runs the paced certificate-∨-timeout scheduler, and
        is mutually exclusive with ``recovery``.
    """

    seed: int = 0
    num_phases: int | None = None
    max_ticks: int = 100_000
    fault_plan: "FaultPlan | None" = None
    observer: "Observer | None" = None
    recovery: "RecoveryManager | None" = None
    synchrony: "PartialSynchrony | None" = None

    def phases_for(self, config: SystemConfig) -> int:
        """Resolve ``num_phases`` against a concrete configuration."""
        if self.num_phases is None:
            return config.n
        if self.num_phases < 1:
            raise ConfigurationError(
                f"num_phases must be >= 1, got {self.num_phases}"
            )
        return self.num_phases


DEFAULT_RUN_PARAMETERS = RunParameters()
