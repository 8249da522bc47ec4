"""Scenarios: the model checker's unit of configuration.

A :class:`Scenario` bundles everything one exploration needs:

* a ``build(choices)`` closure that assembles a
  :class:`~repro.runtime.scheduler.Simulation` wired to the given
  :class:`~repro.mc.choices.ChoiceSource` (adversary *parameters* the
  scenario leaves open — which process is silenced, at which tick, which
  victim a certificate is dealt to — are themselves choice points, so
  they live in the same decision sequence as the schedule);
* an ``evaluate(result)`` closure running the
  :mod:`repro.verify.checker` predicates appropriate for the
  configuration;
* the :class:`~repro.mc.choices.ChoiceSpace` under exploration and the
  tick horizon;
* optionally a protocol *mutation* (a context manager) — the mutant
  harness runs the same scenario with and without it.

Scenarios are reconstructible from ``(name, params)`` with ``params``
JSON-serializable — that pair is what a replay artifact stores, so a
counterexample found today re-executes tomorrow without pickling any
closures.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro.adversary.behaviors import SilentBehavior
from repro.adversary.protocol_attacks import (
    FallbackCertDealer,
    WeakBaEquivocatingLeader,
    WeakBaSplitFinalizeLeader,
)
from repro.config import SystemConfig
from repro.core import weak_ba
from repro.core.validity import ExternalValidity
from repro.core.values import UNDECIDED
from repro.core.weak_ba import WbaPropose, weak_ba_protocol
from repro.errors import ModelCheckError
from repro.mc.choices import ChoiceSource, ChoiceSpace
from repro.runtime.result import RunResult
from repro.runtime.scheduler import Simulation
from repro.runtime.synchrony import PartialSynchrony
from repro.verify.checker import Report, adaptive_word_budget, verify_run


@dataclass
class Scenario:
    """One explorable configuration; see the module docstring."""

    name: str
    params: dict[str, Any]
    space: ChoiceSpace
    max_ticks: int
    build: Callable[[ChoiceSource], Simulation]
    evaluate: Callable[[RunResult], Report]
    mutation: Callable[[], Any] | None = None
    """Factory for a context manager applying a protocol mutation for
    the duration of a run (``None`` = the unmutated protocol)."""

    description: str = ""

    @contextmanager
    def active(self) -> Iterator[None]:
        """Context under which every run of this scenario executes."""
        if self.mutation is None:
            yield
        else:
            with self.mutation():
                yield


def make_scenario(name: str, **params: Any) -> Scenario:
    """Reconstruct a scenario from its registry name and parameters —
    the inverse of what a replay artifact stores."""
    factory = SCENARIOS.get(name)
    if factory is None:
        raise ModelCheckError(
            f"unknown scenario {name!r}; known: {sorted(SCENARIOS)}"
        )
    return factory(**params)


# ----------------------------------------------------------------------
# The weak-BA scenario family
# ----------------------------------------------------------------------

_ADVERSARIES = ("none", "choose-silent", "equivocating-leader", "cert-dealer")


@contextmanager
def _chatty_leaders() -> Iterator[None]:
    """The non-silent-leaders mutant: a decided leader re-proposes in
    its phase anyway, discarding the adaptivity mechanism (Algorithm 4
    line 31's silence condition)."""
    original = weak_ba._phase_steps

    def chatty(ctx, pool, crypto, state, validity):
        propose, *rest = original(ctx, pool, crypto, state, validity)

        def chatty_propose(phase):
            leader = ctx.config.leader_of_phase(phase)
            if ctx.pid == leader and state.decision != UNDECIDED:
                ctx.emit("phase_non_silent", phase=phase, leader=leader)
                ctx.broadcast(
                    WbaPropose(
                        session=crypto.session, phase=phase, value=state.decision
                    )
                )
            propose(phase)

        return chatty_propose, *rest

    weak_ba._phase_steps = chatty
    try:
        yield
    finally:
        weak_ba._phase_steps = original


def _weak_ba_scenario(
    *,
    n: int = 4,
    t: int | None = None,
    num_phases: int = 1,
    adversary: str = "choose-silent",
    corrupt_ticks: list[int] | tuple[int, ...] = (0,),
    input_mode: str = "distinct",
    max_ticks: int = 12,
    reorder: bool = True,
    perm_cap: int = 6,
    drop_budget: int = 0,
    droppable_senders: list[int] | None = None,
    droppable_payloads: list[str] | None = None,
    max_duplicates: int = 0,
    delay_levels: int = 1,
    quorum_delta: int = 0,
    echo_fallback: bool = True,
    chatty_leaders: bool = False,
    word_constant: float = 30.0,
) -> Scenario:
    """Weak BA (Algorithms 3/4) under a bounded schedule space.

    ``adversary`` picks the corruption pattern:

    ``"none"``
        All processes correct.
    ``"choose-silent"``
        The *identity* of the silenced process — or no corruption at
        all — and its corruption tick (one of ``corrupt_ticks``) are
        choice points, so exhaustive exploration covers every ``f <= 1``
        silence pattern alongside every schedule.
    ``"equivocating-leader"``
        p1 drives two values through its phase
        (:class:`WeakBaEquivocatingLeader` with the *scenario's* commit
        quorum, so ``quorum_delta`` weakens attacker and defender
        symmetrically — the quorum-ablation mutant).
    ``"cert-dealer"``
        Section 6's fallback-certificate attack at ``n=7, t=3``: a
        split-finalize leader, a certificate dealer whose victim is a
        choice point, and a silent process.

    The mutation knobs (``quorum_delta``, ``echo_fallback``,
    ``chatty_leaders``) default to the paper's protocol; the mutant
    harness flips exactly one of them per mutant.
    """
    if adversary not in _ADVERSARIES:
        raise ModelCheckError(
            f"unknown adversary {adversary!r}; known: {_ADVERSARIES}"
        )
    if adversary == "cert-dealer" and n != 7:
        raise ModelCheckError("the cert-dealer scenario is specific to n=7, t=3")

    params = dict(
        n=n,
        t=t,
        num_phases=num_phases,
        adversary=adversary,
        corrupt_ticks=list(corrupt_ticks),
        input_mode=input_mode,
        max_ticks=max_ticks,
        reorder=reorder,
        perm_cap=perm_cap,
        drop_budget=drop_budget,
        droppable_senders=droppable_senders,
        droppable_payloads=droppable_payloads,
        max_duplicates=max_duplicates,
        delay_levels=delay_levels,
        quorum_delta=quorum_delta,
        echo_fallback=echo_fallback,
        chatty_leaders=chatty_leaders,
        word_constant=word_constant,
    )
    space = ChoiceSpace(
        reorder=reorder,
        perm_cap=perm_cap,
        drop_budget=drop_budget,
        droppable_senders=(
            frozenset(droppable_senders) if droppable_senders is not None else None
        ),
        droppable_payloads=(
            frozenset(droppable_payloads)
            if droppable_payloads is not None
            else None
        ),
        max_duplicates=max_duplicates,
        delay_levels=delay_levels,
    )
    config = SystemConfig(n=n, t=t if t is not None else (n - 1) // 2)
    quorum = config.commit_quorum + quorum_delta
    validity = ExternalValidity(lambda v: isinstance(v, str))

    def build(choices: ChoiceSource) -> Simulation:
        simulation = Simulation(
            config,
            seed=0,
            max_ticks=max_ticks,
            choices=choices,
            stop_on_horizon=True,
        )
        byzantine: dict[int, Any] = {}
        scheduled: list[tuple[int, int, Any]] = []
        if adversary == "choose-silent":
            pick = choices.choose("corrupt", (), n + 1)
            if pick:
                victim = pick - 1
                tick = corrupt_ticks[
                    choices.choose("corrupt-tick", (victim,), len(corrupt_ticks))
                ]
                if tick == 0:
                    byzantine[victim] = SilentBehavior()
                else:
                    scheduled.append((tick, victim, SilentBehavior()))
        elif adversary == "equivocating-leader":
            byzantine[1] = WeakBaEquivocatingLeader(
                value_a="evil-A", value_b="evil-B", quorum=quorum
            )
        elif adversary == "cert-dealer":
            victims = (0, 3)  # the processes the split leaves undecided
            victim = victims[choices.choose("deal-target", (), len(victims))]
            byzantine[1] = WeakBaSplitFinalizeLeader(
                value="committed", recipients=frozenset({2, 4})
            )
            byzantine[5] = FallbackCertDealer(target=victim)
            byzantine[6] = SilentBehavior()

        for pid in config.processes:
            if pid in byzantine:
                simulation.add_byzantine(pid, byzantine[pid])
            else:
                value = f"v{pid}" if input_mode == "distinct" else "v"
                simulation.add_process(
                    pid,
                    lambda ctx, v=value: weak_ba_protocol(
                        ctx,
                        v,
                        validity,
                        num_phases=num_phases,
                        commit_quorum=quorum,
                        echo_fallback_certificate=echo_fallback,
                    ),
                )
        for tick, pid, behavior in scheduled:
            simulation.schedule_corruption(tick, pid, behavior)
        return simulation

    def evaluate(result: RunResult) -> Report:
        report = verify_run(
            result,
            validity=lambda v: isinstance(v, str),
            allow_bottom=True,
            word_budget=adaptive_word_budget(word_constant),
            check_adaptive_silence=True,
            # Laggards may simply not have entered yet at the horizon.
            check_fallback_sync=not result.truncated,
        )
        if result.truncated:
            report.violations = [
                v for v in report.violations if v.kind != "termination"
            ]
        return report

    return Scenario(
        name="weak-ba",
        params=params,
        space=space,
        max_ticks=max_ticks,
        build=build,
        evaluate=evaluate,
        mutation=_chatty_leaders if chatty_leaders else None,
        description=(
            f"weak BA n={n} t={config.t} phases={num_phases} "
            f"adversary={adversary} horizon={max_ticks}"
        ),
    )


# ----------------------------------------------------------------------
# Partial synchrony: the pre-GST schedule is the adversary
# ----------------------------------------------------------------------

_PSYNC_ADVERSARIES = ("none", "choose-silent")


def _psync_weak_ba_scenario(
    *,
    n: int = 4,
    t: int | None = None,
    gst: int = 1,
    delta: int = 1,
    pre_gst_levels: int = 2,
    num_phases: int = 1,
    adversary: str = "none",
    input_mode: str = "distinct",
    post_gst_budget: int = 80,
    reorder: bool = False,
    perm_cap: int = 2,
    word_constant: float = 30.0,
) -> Scenario:
    """Weak BA under :class:`~repro.runtime.synchrony.PartialSynchrony`.

    The open decisions are the *pre-GST delivery schedule*: every
    message sent before ``gst`` becomes a ``"net-delay"`` choice point
    with ``pre_gst_levels`` delivery ticks spanning earliest-possible
    through held-until-stabilization, so exhaustive exploration proves
    agreement/validity never depend on pre-GST timing — as long as GST
    lands within the protocol's decision horizon.  Beyond it the
    synchronous agreement argument genuinely fails — the adversary
    holds certificates hostage across round boundaries, splitting runs
    commit-vs-⊥ and even commit-vs-commit — while validity and every
    other checked property survive arbitrary timing;
    ``tests/test_mc_psync.py`` pins both regimes and
    ``docs/partial_synchrony.md`` discusses why the split motivates the
    partial-synchrony successor protocols.  The liveness half of the
    GST contract is the horizon itself:
    ``max_ticks = gst + post_gst_budget``, and a truncated run is
    reported as a termination violation (*not* stripped the way the
    lockstep scenario strips it), so "every explored schedule decides
    within a bounded number of post-GST ticks" is checked, not assumed.

    ``adversary="choose-silent"`` additionally makes the identity of
    one silenced process (or no corruption) a choice point, composing
    ``f <= 1`` crash-silence with adversarial timing.
    """
    if adversary not in _PSYNC_ADVERSARIES:
        raise ModelCheckError(
            f"unknown adversary {adversary!r}; known: {_PSYNC_ADVERSARIES}"
        )

    params = dict(
        n=n,
        t=t,
        gst=gst,
        delta=delta,
        pre_gst_levels=pre_gst_levels,
        num_phases=num_phases,
        adversary=adversary,
        input_mode=input_mode,
        post_gst_budget=post_gst_budget,
        reorder=reorder,
        perm_cap=perm_cap,
        word_constant=word_constant,
    )
    max_ticks = gst + post_gst_budget
    space = ChoiceSpace(reorder=reorder, perm_cap=perm_cap)
    config = SystemConfig(n=n, t=t if t is not None else (n - 1) // 2)
    validity = ExternalValidity(lambda v: isinstance(v, str))

    def build(choices: ChoiceSource) -> Simulation:
        simulation = Simulation(
            config,
            seed=0,
            max_ticks=max_ticks,
            choices=choices,
            stop_on_horizon=True,
            synchrony=PartialSynchrony(
                gst=gst, delta=delta, pre_gst_levels=pre_gst_levels
            ),
        )
        byzantine: dict[int, Any] = {}
        if adversary == "choose-silent":
            pick = choices.choose("corrupt", (), n + 1)
            if pick:
                byzantine[pick - 1] = SilentBehavior()
        for pid in config.processes:
            if pid in byzantine:
                simulation.add_byzantine(pid, byzantine[pid])
            else:
                value = f"v{pid}" if input_mode == "distinct" else "v"
                simulation.add_process(
                    pid,
                    lambda ctx, v=value: weak_ba_protocol(
                        ctx, v, validity, num_phases=num_phases
                    ),
                )
        return simulation

    def evaluate(result: RunResult) -> Report:
        return verify_run(
            result,
            validity=lambda v: isinstance(v, str),
            allow_bottom=True,
            # The adaptive O(n(f+1)) bill is a *synchrony* theorem: a
            # pre-GST timing adversary forces the fallback without
            # spending a single corruption, so the honest ceiling under
            # partial synchrony is the fallback's quadratic bill.
            word_budget=lambda r: word_constant * r.config.n * r.config.n,
            check_adaptive_silence=True,
            # Under the shared round clock every correct process leaves
            # a round in the same tick, so entry skew stays within the
            # lockstep tolerance — except on truncated runs, where the
            # laggard objection applies unchanged.
            check_fallback_sync=not result.truncated,
        )

    return Scenario(
        name="psync-weak-ba",
        params=params,
        space=space,
        max_ticks=max_ticks,
        build=build,
        evaluate=evaluate,
        description=(
            f"weak BA n={n} t={config.t} under gst={gst} delta={delta} "
            f"adversary={adversary} horizon={max_ticks}"
        ),
    )


def _civit_strong_ba_scenario(**params: Any) -> Scenario:
    # Imported here: the civit scenario module builds on this one.
    from repro.protocols.civit.scenario import civit_strong_ba_scenario

    return civit_strong_ba_scenario(**params)


SCENARIOS: dict[str, Callable[..., Scenario]] = {
    "weak-ba": _weak_ba_scenario,
    "psync-weak-ba": _psync_weak_ba_scenario,
    "civit-strong-ba": _civit_strong_ba_scenario,
}
"""Registry of scenario factories, keyed by the name replay artifacts
store.  Factories must accept only JSON-serializable keyword params."""
