"""Scenarios: the model checker's unit of configuration.

A :class:`Scenario` bundles everything one exploration needs: a
``build(choices)`` closure that assembles a
:class:`~repro.runtime.scheduler.Simulation` wired to a
:class:`~repro.mc.choices.ChoiceSource` (adversary *parameters* — which
process is silenced, at which tick, which victim a certificate is dealt
to — are choice points in the same decision sequence as the schedule),
an ``evaluate(result)`` closure running the :mod:`repro.verify.checker`
predicates, the :class:`~repro.mc.choices.ChoiceSpace` and tick horizon,
and optionally a protocol *mutation* (a context manager).

A scenario *is* a row of :data:`repro.protocols.table.PROTOCOLS`:
:func:`make_scenario` resolves its name as a row (canonical name or CLI
spelling) and builds every correct process with ``row.build(meta,
**code)``, the call live runs and WAL replay make.  Everything else is
derived from the row — the value domain from ``row.binary``, the
mutation knobs from the parameters its ``build`` takes — except two
small tables: :data:`ATTACKS`, the protocol-aware coalitions, and
:data:`ROW_DEFAULTS`.  :data:`PRESETS` names the one configuration that
is not a plain row: ``"psync-weak-ba"``, weak BA under a GST.

Scenarios are reconstructible from ``(name, params)`` with ``params``
JSON-serializable and fully expanded — that pair is what a replay
artifact stores, so a counterexample found today re-executes tomorrow
without pickling any closures.
"""

from __future__ import annotations

import inspect
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
from repro.core.values import UNDECIDED
from repro.core.weak_ba import WbaPropose
from repro.errors import ConfigurationError, ModelCheckError
from repro.mc.choices import ChoiceSource, ChoiceSpace
from repro.protocols.civit.attacks import (
    CivitEquivocatingCertifier,
    CivitSplitCertifier,
)
from repro.protocols.civit.core import certification_views
from repro.protocols.table import PROTOCOLS, Protocol, get_protocol, string_validity
from repro.runtime.result import RunResult
from repro.runtime.scheduler import Simulation
from repro.runtime.synchrony import PartialSynchrony
from repro.verify.checker import (
    Report,
    adaptive_word_budget,
    quadratic_word_budget,
    verify_run,
)


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


# ----------------------------------------------------------------------
# What stays per row: the coalitions that speak a protocol's wire format
# ----------------------------------------------------------------------


def _quorum(params: dict, config: SystemConfig) -> int:
    # The attacker uses the scenario's commit quorum, so ``quorum_delta``
    # weakens attacker and defender symmetrically.
    return config.commit_quorum + params.get("quorum_delta", 0)


def _deal_target(choices: ChoiceSource) -> int:
    victims = (0, 3)  # the processes the split leaves undecided
    return victims[choices.choose("deal-target", (), len(victims))]


Attack = Callable[[dict, SystemConfig, ChoiceSource], dict[int, Any]]

ATTACKS: dict[tuple[str, str], Attack] = {
    # p1 drives two values through its phase (the quorum-ablation mutant).
    ("weak_ba", "equivocating-leader"): lambda params, config, choices: {
        1: WeakBaEquivocatingLeader(
            value_a="evil-A", value_b="evil-B", quorum=_quorum(params, config)
        )
    },
    # Section 6's fallback-certificate attack at n=7, t=3: a
    # split-finalize leader, a dealer whose victim is a choice point, and
    # a silent process.
    ("weak_ba", "cert-dealer"): lambda params, config, choices: {
        1: WeakBaSplitFinalizeLeader(
            value="committed", recipients=frozenset({2, 4})
        ),
        5: FallbackCertDealer(target=_deal_target(choices)),
        6: SilentBehavior(),
    },
    # p1 — view-1 certifier and inner phase-1 leader — certifies both
    # bits, then drives them through its weak-BA phase.
    ("civit_strong_ba", "equivocating-certifier"): lambda params, config, choices: {
        1: CivitEquivocatingCertifier(
            quorum=_quorum(params, config),
            num_views=certification_views(params, config),
        )
    },
    # The same Section-6 attack retargeted at the inner session: the
    # split certifier keeps the only completable certificate private.
    ("civit_strong_ba", "cert-dealer"): lambda params, config, choices: {
        1: CivitSplitCertifier(
            recipients=frozenset({2, 4}),
            num_views=certification_views(params, config),
        ),
        5: FallbackCertDealer(target=_deal_target(choices), session="civit/wba"),
        6: SilentBehavior(),
    },
}
"""Protocol-aware coalitions by ``(row, adversary)``; each maps the
scenario's params, config and choice source to ``{pid: behavior}`` and
resolves its own choice points.  ``"none"`` and ``"choose-silent"``
work on every row."""

# ----------------------------------------------------------------------
# Parameters: common, lockstep, per row, and the one preset
# ----------------------------------------------------------------------

_COMMON = dict(
    n=4,
    t=None,
    num_phases=None,
    adversary="choose-silent",
    reorder=True,
    perm_cap=6,
    word_constant=30.0,
)
_SYNCHRONOUS = dict(corrupt_ticks=[0], max_ticks=120)
_MUTATIONS = dict(quorum_delta=0, echo_fallback=True, chatty_leaders=False)
"""Mutation knobs, offered by rows whose ``build`` takes the code
keywords ``commit_quorum`` and ``echo_fallback_certificate``."""

ROW_DEFAULTS: dict[str, dict[str, Any]] = {
    "weak_ba": dict(
        num_phases=1,
        max_ticks=12,
        drop_budget=0,
        droppable_senders=None,
        droppable_payloads=None,
        max_duplicates=0,
        delay_levels=1,
    ),
    "civit_strong_ba": dict(
        num_views=None, num_phases=1, max_ticks=24, word_constant=45.0
    ),
    # Failure-free n=4 bills: 42.5 and 39.5 words per n(f+1).
    "adaptive_strong_ba": dict(word_constant=45.0),
    "civit_adaptive_strong_ba": dict(word_constant=45.0),
}
"""Per-row overrides of :data:`_COMMON` and :data:`_SYNCHRONOUS`.  Weak BA
also offers the drop/duplicate/delay knobs of its schedule space."""

PRESETS: dict[str, tuple[str, dict[str, Any]]] = {
    # The pre-GST delivery schedule is the adversary: every message sent
    # before ``gst`` is a "net-delay" choice point with
    # ``pre_gst_levels`` delivery ticks.  The horizon is
    # ``gst + post_gst_budget`` and truncation is a termination
    # violation, so liveness after GST is checked, not assumed
    # (docs/partial_synchrony.md).
    "psync-weak-ba": ("weak_ba", dict(
        gst=1,
        delta=1,
        pre_gst_levels=2,
        num_phases=1,
        adversary="none",
        post_gst_budget=80,
        reorder=False,
        perm_cap=2,
    )),
}
"""Named configurations that are not a plain row: ``name -> (row,
params)``."""

SCENARIOS: tuple[str, ...] = tuple(
    [row.cli or row.name for row in PROTOCOLS.values() if row.proposal is not None]
    + list(PRESETS)
)
"""Every scenario name, in the spelling replay artifacts store."""


def _defaults(name: str, row: Protocol) -> dict[str, Any]:
    """Every param scenario ``name`` takes, with its default."""
    common = {**_COMMON, "input_mode": "binary" if row.binary else "distinct"}
    if name in PRESETS:
        return {**common, **PRESETS[name][1]}
    defaults = {**common, **_SYNCHRONOUS, **ROW_DEFAULTS.get(row.name, {})}
    if "commit_quorum" in inspect.signature(row.build).parameters:
        defaults.update(_MUTATIONS)
    return defaults


def _inputs(row: Protocol, input_mode: str) -> Callable[[int], object]:
    """``pid -> input``: mixed inputs (``"binary"`` bits on a binary
    row, ``"distinct"`` strings otherwise) or the row's ``proposal``
    for everyone (``"unanimous"``)."""
    mixed = "binary" if row.binary else "distinct"
    if input_mode == "unanimous":
        return lambda pid: row.proposal
    if input_mode != mixed:
        raise ModelCheckError(
            f"unknown input_mode {input_mode!r} for {row.name}; known: "
            f"{[mixed, 'unanimous']}"
        )
    return (lambda pid: pid % 2) if row.binary else (lambda pid: f"v{pid}")


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


def make_scenario(name: str, **params: Any) -> Scenario:
    """Reconstruct a scenario from its name and parameters — the
    inverse of what a replay artifact stores.

    ``name`` is a :data:`PRESETS` key or a ``PROTOCOLS`` row.  The
    adversary is ``"none"``, ``"choose-silent"`` (the identity of the
    one silenced process — any pid, roles included, or nobody — and its
    corruption tick, one of ``corrupt_ticks``, are choice points) or an
    :data:`ATTACKS` coalition of the row.  A param the scenario does not
    take raises :class:`~repro.errors.ModelCheckError`, so a mutation
    knob never runs unmutated in silence on a row whose build ignores
    it.
    """
    preset = PRESETS.get(name)
    try:
        row = get_protocol(preset[0] if preset else name)
    except ConfigurationError:
        raise ModelCheckError(
            f"unknown scenario {name!r}; known: {sorted(SCENARIOS)}"
        ) from None
    if row.proposal is None:
        raise ModelCheckError(
            f"{row.name} replicates a command log; the model checker "
            f"explores single-value rows only: {sorted(SCENARIOS)}"
        )
    defaults = _defaults(name, row)
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise ModelCheckError(
            f"scenario {name!r} takes no param {unknown[0]!r}; it takes "
            f"{sorted(defaults)}"
        )
    params = {**defaults, **params}
    if "corrupt_ticks" in params:
        params["corrupt_ticks"] = list(params["corrupt_ticks"])

    n, adversary = params["n"], params["adversary"]
    attack = ATTACKS.get((row.name, adversary))
    if attack is None and adversary not in ("none", "choose-silent"):
        known = ["none", "choose-silent"] + [a for r, a in ATTACKS if r == row.name]
        raise ModelCheckError(
            f"unknown adversary {adversary!r} for {row.name}; known: {known}"
        )
    if adversary == "cert-dealer" and n != 7:
        raise ModelCheckError("adversary 'cert-dealer' is laid out for n=7, t=3")
    config = SystemConfig(
        n=n, t=params["t"] if params["t"] is not None else (n - 1) // 2
    )
    psync = "gst" in params
    if psync:
        max_ticks = params["gst"] + params["post_gst_budget"]
        synchrony = PartialSynchrony(
            **{key: params[key] for key in ("gst", "delta", "pre_gst_levels")}
        )
    else:
        max_ticks, synchrony = params["max_ticks"], None
    corrupt_ticks = params.get("corrupt_ticks", [0])

    space = ChoiceSpace(**{
        key: frozenset(value)
        if key.startswith("droppable_") and value is not None
        else value
        for key, value in params.items()
        if key in ChoiceSpace.__dataclass_fields__
    })

    code: dict[str, Any] = {} if row.binary else {"validity": string_validity()}
    if "quorum_delta" in params:
        code["commit_quorum"] = config.commit_quorum + params["quorum_delta"]
        code["echo_fallback_certificate"] = params["echo_fallback"]
    meta_extra = {
        key: params[key]
        for key in ("num_phases", "num_views")
        if params.get(key) is not None
    }
    metas = row.metas(config.processes, _inputs(row, params["input_mode"]))
    factories = {
        pid: row.build({**meta, **meta_extra}, **code)
        for pid, meta in metas.items()
    }

    def build(choices: ChoiceSource) -> Simulation:
        simulation = Simulation(
            config, seed=0, max_ticks=max_ticks, choices=choices,
            stop_on_horizon=True, synchrony=synchrony,
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
        elif attack is not None:
            byzantine = attack(params, config, choices)

        for pid in config.processes:
            if pid in byzantine:
                simulation.add_byzantine(pid, byzantine[pid])
            else:
                simulation.add_process(pid, factories[pid])
        for tick, pid, behavior in scheduled:
            simulation.schedule_corruption(tick, pid, behavior)
        return simulation

    def validity(value: object) -> bool:
        return value in (0, 1) if row.binary else isinstance(value, str)

    # The adaptive O(n(f+1)) bill is a *synchrony* theorem: a pre-GST
    # timing adversary forces the fallback without a corruption, so the
    # honest ceiling under a GST is the fallback's quadratic bill.
    word_budget = (quadratic_word_budget if psync else adaptive_word_budget)(
        params["word_constant"]
    )

    def evaluate(result: RunResult) -> Report:
        report = verify_run(
            result,
            validity=validity,
            allow_bottom=not row.binary,
            word_budget=word_budget,
            check_adaptive_silence=True,
            # Laggards may simply not have entered yet at the horizon.
            check_fallback_sync=not result.truncated,
        )
        if result.truncated and not psync:
            # Synchronous horizons bound the space, not the protocol; under
            # a GST the horizon *is* the liveness claim.
            report.violations = [
                v for v in report.violations if v.kind != "termination"
            ]
        return report

    timing = f" gst={params['gst']} delta={params['delta']}" if psync else ""
    return Scenario(
        name=name if preset else row.cli or row.name,
        params=params,
        space=space,
        max_ticks=max_ticks,
        build=build,
        evaluate=evaluate,
        mutation=_chatty_leaders if params.get("chatty_leaders") else None,
        description=(
            f"{row.name} n={n} t={config.t} phases={params['num_phases']}"
            f"{timing} adversary={adversary} horizon={max_ticks}"
        ),
    )
