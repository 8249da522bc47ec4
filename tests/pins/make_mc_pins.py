"""Golden model-checker replay artifacts, written at the parent of the
one-scenario-builder change.

``python tests/pins/make_mc_pins.py`` (with ``PYTHONPATH=src``)
rewrites ``tests/pins/mc/*.replay.json`` from whatever tree it is run
in; it was run once, on a checkout of the commit before the scenario
builder was unified, and ``tests/test_mc_pins.py`` asserts that the
current tree rebuilds every artifact from its own ``(scenario, params)``
pair, equal key for key, and replays it with the recorded violations.

The artifacts are the six mutant kills (``repro mc mutants --out-dir``)
plus the first agreement split ``psync-weak-ba`` finds at ``gst=7``,
unshrunk: GST past the decision horizon, where the synchronous
agreement argument fails (``tests/test_mc_psync.py``).
"""

from __future__ import annotations

from pathlib import Path

from repro.mc.explore import explore_exhaustive
from repro.mc.mutants import MUTANTS, kill_mutant
from repro.mc.scenario import make_scenario
from repro.mc.shrink import replay_artifact, save_replay

PINS = Path(__file__).with_name("mc")
PSYNC_SPLIT = PINS / "psync-weak-ba-gst7-split.replay.json"


def main() -> None:
    for name in sorted(MUTANTS):
        print(kill_mutant(name, out_dir=PINS).summary())
    scenario = make_scenario("psync-weak-ba", gst=7)
    result = explore_exhaustive(scenario, stop_at_first=True)
    (split,) = result.counterexamples
    save_replay(PSYNC_SPLIT, replay_artifact(scenario, split.decisions))
    print(f"psync split: {len(split.decisions)} decisions after "
          f"{result.stats.runs} run(s) -> {PSYNC_SPLIT}")


if __name__ == "__main__":
    main()
