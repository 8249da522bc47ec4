"""Golden pin for paced runs: what every table row did under GST partial
synchrony, tick for tick, on the tree before the timing models were cut
down to lockstep and one ``PartialSynchrony``.

``python tests/pins/make_paced_pin.py`` (with ``PYTHONPATH=src``)
rewrites ``paced.json`` from whatever tree it is run in; it was run
once, on a checkout of the commit before that change, and
``tests/test_paced_pin.py`` asserts the current tree reproduces the
file exactly.  Regenerate it only when a change is *meant* to move what
a paced run does.

A case is ``row/n/gst/delta/seed/f``: every correct process runs the
row under ``PartialSynchrony(gst, delta, seed)`` (proposals as in
``sparse_time.json``), and ``f`` seeded targets (never a row's
sender/leader) stay silent.  A case pins the same columns as a
non-crash row of ``sparse_time.json`` (:data:`FIELDS`).
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from repro.adversary.behaviors import SilentBehavior
from repro.config import RunParameters
from repro.protocols.table import PROTOCOLS, run_protocol, string_validity
from repro.runtime.synchrony import PartialSynchrony

if __package__:
    from .make_sparse_pin import _config, _digest, _metas
else:  # run as a script
    from make_sparse_pin import _config, _digest, _metas

PIN = Path(__file__).with_name("paced.json")

SIZES = (5, 7)
GSTS = (0, 2, 5, 9)
DELTAS = (1, 2, 3)
SEEDS = (0, 1, 2)
FAULTS = (0, 1)
MAX_TICKS = 200_000

FIELDS = ("trace", "words", "signatures", "ticks", "decisions", "halted_at")
"""What a pinned row lists, in order; texts are pinned by the first 16
hex digits of their sha256."""


def cases(sizes: tuple[int, ...] = SIZES) -> list[str]:
    """Every case id at ``sizes``, in file order."""
    return [
        f"{name}/{n}/{gst}/{delta}/{seed}/{f}"
        for name in sorted(PROTOCOLS)
        for n in sizes
        for gst in GSTS
        for delta in DELTAS
        for seed in SEEDS
        for f in FAULTS
    ]


def compute(case: str) -> list:
    """Run one case in the current tree and digest what it did."""
    name, n, gst, delta, seed, f = case.split("/")
    config = _config(name, int(n))
    seed = int(seed)
    candidates = [p for p in config.processes if p not in PROTOCOLS[name].shielded]
    targets = sorted(random.Random(seed).sample(candidates, int(f)))
    metas = _metas(name, config, False)
    synchrony = PartialSynchrony(gst=int(gst), delta=int(delta), seed=seed)
    result = run_protocol(
        name, config, {p: m for p, m in metas.items() if p not in targets},
        seed=seed, byzantine={p: SilentBehavior() for p in targets},
        params=RunParameters(seed=seed, max_ticks=MAX_TICKS, synchrony=synchrony),
        validity=string_validity,
    )
    return _digest(result)


def write(path: Path = PIN) -> int:
    """Pin every case as the current tree runs it, one row per line."""
    rows = [f"{json.dumps(case)}: {json.dumps(compute(case))}" for case in cases()]
    path.write_text("{\n" + ",\n".join(rows) + "\n}\n")
    return len(rows)


if __name__ == "__main__":
    print(f"pinned {write()} cases -> {PIN}")
