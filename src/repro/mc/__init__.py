"""Schedule-space model checking.

Every source of nondeterminism in a run — inbox permutations,
per-message drop/duplicate/delay decisions, adversary corruption timing
— is a decision drawn from a pluggable source.  This package treats a
run as a function from a finite **decision sequence** to an outcome,
which is exactly the shape a model checker needs:

* :mod:`repro.mc.choices` — the choice-point interface threaded through
  :mod:`repro.runtime.scheduler` and :mod:`repro.faults`, with a seeded
  implementation (the plain RNG behavior), a scripted implementation
  (replay), and the prefix implementation the explorer drives;
* :mod:`repro.mc.scenario` — one builder that turns a row of
  :data:`repro.protocols.table.PROTOCOLS` (or the ``psync-weak-ba``
  preset) plus JSON-serializable params into a bounded configuration
  (adversary + decision space + property battery);
* :mod:`repro.mc.explore` — exhaustive DFS over decision prefixes with
  state-fingerprint pruning, plus a seeded random-walk mode;
* :mod:`repro.mc.shrink` — ddmin minimization of failing decision
  sequences and the JSON replay artifact;
* :mod:`repro.mc.mutants` — seeded protocol mutations that the checker
  must kill, each mapped to the paper lemma it falsifies.
"""

from repro.mc.choices import (
    ChoicePoint,
    ChoiceSource,
    ChoiceSpace,
    ScriptedChoices,
    SeededChoices,
)
from repro.mc.explore import (
    Counterexample,
    ExplorationResult,
    ExplorationStats,
    explore_exhaustive,
    explore_random,
    run_schedule,
)
from repro.mc.mutants import MUTANTS, MutantKill, kill_mutant
from repro.mc.scenario import SCENARIOS, Scenario, make_scenario
from repro.mc.shrink import (
    load_replay,
    replay,
    replay_artifact,
    save_replay,
    shrink,
)

__all__ = [
    "ChoicePoint",
    "ChoiceSource",
    "ChoiceSpace",
    "Counterexample",
    "ExplorationResult",
    "ExplorationStats",
    "MUTANTS",
    "MutantKill",
    "SCENARIOS",
    "Scenario",
    "ScriptedChoices",
    "SeededChoices",
    "explore_exhaustive",
    "explore_random",
    "kill_mutant",
    "load_replay",
    "make_scenario",
    "replay",
    "replay_artifact",
    "run_schedule",
    "save_replay",
    "shrink",
]
