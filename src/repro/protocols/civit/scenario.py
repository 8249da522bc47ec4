"""The civit backend's model-checking scenario family.

Mirrors :func:`repro.mc.scenario._weak_ba_scenario` one level up the
stack: the explored protocol is the full binary strong BA
(certification views + the shared weak-BA core + ⊥-resolution), so the
same mutation knobs (``quorum_delta``, ``echo_fallback``,
``chatty_leaders``) ablate the *inner* core while the adversaries
attack through the certification layer.  ``repro.mc.scenario.SCENARIOS``
lists it as ``"civit-strong-ba"``, so replay artifacts recorded against
this scenario re-execute through the ordinary ``(name, params)`` path.
"""

from __future__ import annotations

from typing import Any

from repro.adversary.behaviors import SilentBehavior
from repro.adversary.protocol_attacks import FallbackCertDealer
from repro.config import SystemConfig
from repro.errors import ModelCheckError
from repro.mc.choices import ChoiceSource, ChoiceSpace
from repro.mc.scenario import Scenario, _chatty_leaders
from repro.protocols.civit.attacks import (
    CivitEquivocatingCertifier,
    CivitSplitCertifier,
)
from repro.protocols.civit.core import (
    BINARY_VALUES,
    civit_strong_ba_protocol,
)
from repro.runtime.result import RunResult
from repro.runtime.scheduler import Simulation
from repro.verify.checker import Report, adaptive_word_budget, verify_run

_ADVERSARIES = (
    "none",
    "choose-silent",
    "equivocating-certifier",
    "cert-dealer",
)


def civit_strong_ba_scenario(
    *,
    n: int = 4,
    t: int | None = None,
    num_views: int | None = None,
    num_phases: int = 1,
    adversary: str = "choose-silent",
    corrupt_ticks: list[int] | tuple[int, ...] = (0,),
    input_mode: str = "binary",
    max_ticks: int = 24,
    reorder: bool = True,
    perm_cap: int = 6,
    quorum_delta: int = 0,
    echo_fallback: bool = True,
    chatty_leaders: bool = False,
    word_constant: float = 45.0,
) -> Scenario:
    """Civit binary strong BA under a bounded schedule space.

    ``adversary`` picks the corruption pattern:

    ``"none"`` / ``"choose-silent"``
        As in the weak-BA scenario (silenced identity and tick are
        choice points).
    ``"equivocating-certifier"``
        p1 — view-1 certifier *and* inner phase-1 leader — certifies
        both binary values with coalition top-up shares, then drives
        them through its weak-BA phase with the scenario's commit
        quorum (:class:`CivitEquivocatingCertifier`); ``quorum_delta``
        ablates attacker and defender symmetrically.
    ``"cert-dealer"``
        The Section-6 fallback-certificate attack retargeted at the
        inner session, ``n=7, t=3``: a split-certifier keeps the only
        completable certificate private and split-finalizes it, a
        dealer hands the fallback certificate to a chosen victim, and
        one process stays silent.

    ``input_mode="binary"`` gives correct process ``i`` input ``i % 2``
    (a genuinely mixed run); ``"unanimous"`` gives everyone ``1``.
    """
    if adversary not in _ADVERSARIES:
        raise ModelCheckError(
            f"unknown adversary {adversary!r}; known: {_ADVERSARIES}"
        )
    if adversary == "cert-dealer" and n != 7:
        raise ModelCheckError("the cert-dealer scenario is specific to n=7, t=3")
    if input_mode not in ("binary", "unanimous"):
        raise ModelCheckError(f"unknown input_mode {input_mode!r}")

    params = dict(
        n=n,
        t=t,
        num_views=num_views,
        num_phases=num_phases,
        adversary=adversary,
        corrupt_ticks=list(corrupt_ticks),
        input_mode=input_mode,
        max_ticks=max_ticks,
        reorder=reorder,
        perm_cap=perm_cap,
        quorum_delta=quorum_delta,
        echo_fallback=echo_fallback,
        chatty_leaders=chatty_leaders,
        word_constant=word_constant,
    )
    space = ChoiceSpace(reorder=reorder, perm_cap=perm_cap)
    config = SystemConfig(n=n, t=t if t is not None else (n - 1) // 2)
    views = num_views if num_views is not None else config.t + 1
    quorum = config.commit_quorum + quorum_delta

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
        elif adversary == "equivocating-certifier":
            byzantine[1] = CivitEquivocatingCertifier(
                quorum=quorum, num_views=views
            )
        elif adversary == "cert-dealer":
            victims = (0, 3)  # the processes the split leaves undecided
            victim = victims[choices.choose("deal-target", (), len(victims))]
            byzantine[1] = CivitSplitCertifier(
                recipients=frozenset({2, 4}), num_views=views
            )
            byzantine[5] = FallbackCertDealer(target=victim, session="civit/wba")
            byzantine[6] = SilentBehavior()

        for pid in config.processes:
            if pid in byzantine:
                simulation.add_byzantine(pid, byzantine[pid])
            else:
                value = pid % 2 if input_mode == "binary" else 1
                simulation.add_process(
                    pid,
                    lambda ctx, v=value: civit_strong_ba_protocol(
                        ctx,
                        v,
                        num_views=views,
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
            # Binary strong BA: never ⊥, decisions stay in the domain.
            validity=lambda v: v in BINARY_VALUES,
            allow_bottom=False,
            word_budget=adaptive_word_budget(word_constant),
            check_adaptive_silence=True,
            check_fallback_sync=not result.truncated,
        )
        if result.truncated:
            report.violations = [
                v for v in report.violations if v.kind != "termination"
            ]
        return report

    return Scenario(
        name="civit-strong-ba",
        params=params,
        space=space,
        max_ticks=max_ticks,
        build=build,
        evaluate=evaluate,
        mutation=_chatty_leaders if chatty_leaders else None,
        description=(
            f"civit strong BA n={n} t={config.t} views={views} "
            f"phases={num_phases} adversary={adversary} horizon={max_ticks}"
        ),
    )
