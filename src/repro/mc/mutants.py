"""Mutation testing: does the checker actually check anything?

A model checker that reports "no violations" is only as credible as its
ability to *find* violations when the protocol is wrong.  Each mutant
here re-introduces a bug the paper's design rules out, paired with the
lemma that rules it out:

``quorum-off-by-one``
    Commit quorum ``⌈(n+t+1)/2⌉ - 1`` (= ``t+1`` at ``n = 2t+1``) —
    discards quorum intersection in a correct process (Section 6's
    first key observation, the load-bearing fact behind Lemma 15's
    unique finalize certificate).  Killed by an **agreement** violation
    under the equivocating-leader attack.
``fallback-echo-skipped``
    A correct process no longer re-broadcasts the first fallback
    certificate it receives — discards Lemmas 17/18 ("whenever one
    correct process runs the fallback algorithm, all of them do").
    Killed by a **fallback-sync** violation under Section 6's
    certificate-dealing attack (agreement survives in the halting
    simulation — see ``benchmarks/bench_ablation_fallback_sync.py`` —
    which is exactly why the checker carries a dedicated predicate).
``non-silent-leaders``
    A decided leader re-proposes in its phase anyway — discards the
    adaptivity mechanism behind ``O(n(f+1))`` (Algorithm 4 line 31,
    Lemma 9's accounting).  Killed by an **adaptive-silence**
    violation.

For each mutant, :func:`kill_mutant` explores the mutated scenario to a
first counterexample, shrinks it, builds the JSON replay artifact, and
re-verifies the artifact reproduces the violation — then explores the
*unmutated* twin of the same scenario exhaustively to confirm the kill
is the mutation's doing, not the scenario's.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.errors import ModelCheckError
from repro.mc.explore import (
    Counterexample,
    ExplorationResult,
    explore_exhaustive,
)
from repro.mc.scenario import make_scenario
from repro.mc.shrink import ShrinkResult, replay, replay_artifact, save_replay, shrink


@dataclass(frozen=True)
class MutantSpec:
    """One protocol mutation plus the scenario that kills it."""

    name: str
    description: str
    lemma: str
    """The paper lemma/section the mutation discards."""
    expected_kinds: frozenset[str]
    """Violation kinds the kill must include."""
    baseline: dict[str, Any]
    """Scenario params of the attack, unmutated."""
    mutation: dict[str, Any]
    """The mutation knob the kill flips on top of ``baseline``."""
    max_runs: int = 5_000
    scenario: str = "weak-ba"
    """Scenario the kill runs in: the table row of the mutated protocol
    (backend mutants name their backend's strong BA, "civit-strong-ba")."""

    @property
    def mutated(self) -> dict[str, Any]:
        return {**self.baseline, **self.mutation}


_EQUIVOCATION = dict(n=4, num_phases=1, reorder=False)
_CERT_DEALER = dict(
    n=7,
    num_phases=7,
    adversary="cert-dealer",
    max_ticks=200,
    reorder=False,
    word_constant=120.0,  # the fallback's quadratic spend is legal here
)
_CHATTY = dict(n=4, num_phases=2, adversary="none", reorder=False)

MUTANTS: dict[str, MutantSpec] = {
    spec.name: spec
    for spec in (
        MutantSpec(
            name="quorum-off-by-one",
            description="commit quorum ceil((n+t+1)/2) - 1: no "
            "correct-process intersection between quorums",
            lemma="Section 6 first key observation; Lemma 15 (unique "
            "finalize certificate)",
            expected_kinds=frozenset({"agreement"}),
            baseline=dict(
                _EQUIVOCATION, adversary="equivocating-leader", max_ticks=24
            ),
            mutation=dict(quorum_delta=-1),
        ),
        MutantSpec(
            name="fallback-echo-skipped",
            description="fallback certificates are not re-broadcast: the "
            "adversary can start the fallback at a single victim",
            lemma="Lemmas 17/18 (synchronized fallback entry within delta)",
            expected_kinds=frozenset({"fallback-sync"}),
            baseline=_CERT_DEALER,
            mutation=dict(echo_fallback=False),
        ),
        MutantSpec(
            name="non-silent-leaders",
            description="a decided leader re-proposes in its phase anyway",
            lemma="Algorithm 4 line 31; Lemma 9 (silent phases make the "
            "word count adaptive)",
            expected_kinds=frozenset({"adaptive-silence"}),
            baseline=dict(_CHATTY, max_ticks=40),
            mutation=dict(chatty_leaders=True),
        ),
        # -- civit backend twins: the same three lemma ablations, driven
        #    through the certification layer of the second backend.  The
        #    attacks differ (a Byzantine *certifier* must first mint the
        #    conflicting certified values the inner weak BA is fed), but
        #    the kill list is deliberately identical — the conformance
        #    suite asserts that parity (tests/test_conformance.py).
        MutantSpec(
            name="civit-quorum-off-by-one",
            description="inner commit quorum ceil((n+t+1)/2) - 1 in the "
            "civit stack: a Byzantine certifier certifies both binary "
            "values and drives them through its weak-BA phase",
            lemma="quorum intersection of the shared adaptive core (Lemma "
            "15); certification alone cannot provide agreement",
            expected_kinds=frozenset({"agreement"}),
            scenario="civit-strong-ba",
            baseline=dict(
                _EQUIVOCATION, adversary="equivocating-certifier", max_ticks=30
            ),
            mutation=dict(quorum_delta=-1),
        ),
        MutantSpec(
            name="civit-fallback-echo-skipped",
            description="fallback certificates of the inner weak BA are not "
            "re-broadcast: the dealer starts the fallback at a single "
            "victim behind the certification views",
            lemma="Lemmas 17/18 on the shared core, session civit/wba",
            expected_kinds=frozenset({"fallback-sync"}),
            scenario="civit-strong-ba",
            baseline=dict(_CERT_DEALER, num_views=4, max_ticks=230),
            mutation=dict(echo_fallback=False),
        ),
        MutantSpec(
            name="civit-non-silent-leaders",
            description="a decided inner-phase leader re-proposes anyway "
            "(certification views keep their own silence discipline)",
            lemma="Algorithm 4 line 31 applied to the inner core; the civit "
            "stack's adaptivity rests on the same accounting",
            expected_kinds=frozenset({"adaptive-silence"}),
            scenario="civit-strong-ba",
            baseline=dict(_CHATTY, max_ticks=46),
            mutation=dict(chatty_leaders=True),
        ),
    )
}


@dataclass
class MutantKill:
    """The full evidence that one mutant is dead."""

    spec: MutantSpec
    counterexample: Counterexample
    shrunk: ShrinkResult
    artifact: dict[str, Any]
    artifact_path: Path | None
    exploration: ExplorationResult
    baseline: ExplorationResult | None
    """Exhaustive run of the unmutated twin (``None`` if skipped); a
    valid kill requires it clean and complete."""

    def summary(self) -> str:
        lines = [
            f"mutant {self.spec.name}: KILLED "
            f"({', '.join(self.counterexample.kinds)})",
            f"  discards: {self.spec.lemma}",
            f"  found after {self.exploration.stats.runs} schedule(s); "
            f"shrunk {len(self.shrunk.original)} -> "
            f"{len(self.shrunk.decisions)} decisions "
            f"in {self.shrunk.tests} test run(s)",
            f"  replay decisions: {list(self.shrunk.decisions)}",
        ]
        if self.baseline is not None:
            lines.append(
                f"  unmutated twin: {self.baseline.stats.terminal} "
                f"schedule(s) explored exhaustively, "
                f"{self.baseline.stats.violations} violation(s)"
            )
        if self.artifact_path is not None:
            lines.append(f"  artifact: {self.artifact_path}")
        return "\n".join(lines)


def kill_mutant(
    name: str,
    *,
    check_baseline: bool = True,
    out_dir: str | Path | None = None,
) -> MutantKill:
    """Kill one mutant end to end (see the module docstring).

    Raises :class:`~repro.errors.ModelCheckError` if the mutant
    survives exploration, the counterexample misses the expected
    violation kinds, or the unmutated twin is not clean.
    """
    spec = MUTANTS.get(name)
    if spec is None:
        raise ModelCheckError(f"unknown mutant {name!r}; known: {sorted(MUTANTS)}")

    mutated = make_scenario(spec.scenario, **spec.mutated)
    exploration = explore_exhaustive(
        mutated, max_runs=spec.max_runs, stop_at_first=True
    )
    if not exploration.counterexamples:
        raise ModelCheckError(
            f"mutant {name} SURVIVED {exploration.stats.runs} schedule(s)"
        )
    counterexample = exploration.counterexamples[0]
    missing = spec.expected_kinds - set(counterexample.kinds)
    if missing:
        raise ModelCheckError(
            f"mutant {name} died of {counterexample.kinds}, expected kinds "
            f"{sorted(spec.expected_kinds)} (missing {sorted(missing)})"
        )

    shrunk = shrink(mutated, counterexample)
    artifact = replay_artifact(mutated, shrunk.decisions)
    replay(artifact)  # must reproduce deterministically, or raises

    artifact_path: Path | None = None
    if out_dir is not None:
        artifact_path = save_replay(
            Path(out_dir) / f"mutant-{name}.replay.json", artifact
        )

    baseline: ExplorationResult | None = None
    if check_baseline:
        baseline = explore_exhaustive(
            make_scenario(spec.scenario, **spec.baseline),
            max_runs=spec.max_runs,
        )
        if baseline.counterexamples:
            raise ModelCheckError(
                f"unmutated twin of {name} has violations of its own: "
                f"{baseline.counterexamples[0].summary}"
            )
        if not baseline.complete:
            raise ModelCheckError(
                f"unmutated twin of {name} not explored exhaustively "
                f"within {spec.max_runs} runs"
            )

    return MutantKill(
        spec=spec,
        counterexample=counterexample,
        shrunk=shrunk,
        artifact=artifact,
        artifact_path=artifact_path,
        exploration=exploration,
        baseline=baseline,
    )
