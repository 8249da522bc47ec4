"""Golden pin for the fallback at the sizes it is slow at: what the
worst-case decisions did, tick for tick, on the tree before envelopes
were shared per multicast, committees were interned per suite and
signed objects got one verdict per suite.

``python tests/pins/make_scale_pin.py`` (with ``PYTHONPATH=src``)
rewrites ``scale.json`` from whatever tree it is run in; it was run
once, on a checkout of the commit before that change, and
``tests/test_scale_pin.py`` (marked ``slow``) asserts the current tree
reproduces the file exactly.  ``sparse_time.json`` stops at n=17; these
cases run the per-copy work those changes cut at the sizes where it
dominates.  Regenerate it only when a change is *meant* to move a trace,
a bill or a tick number.

A case is ``protocol/n/f``: ``f`` processes picked by
:class:`~repro.adversary.strategies.SilentStrategy` stay silent from the
start (never p0 on ``cohen_strong_ba``, whose fixed leader must stay
correct), and every correct process proposes the same value, as in the
``sim_fallback`` benchmark ops.  ``weak_ba`` at ``f = t`` and
``fallback_ba`` run the quadratic fallback; ``cohen_strong_ba`` at
``f = 3`` runs Algorithm 5 around it.  A case pins the canonical trace
and the decisions (first 16 hex digits of the sha256 of their repr),
the correct words, the signatures and the ticks.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.adversary.strategies import SilentStrategy, apply_strategy
from repro.config import SystemConfig
from repro.core.validity import ExternalValidity
from repro.core.weak_ba import weak_ba_protocol
from repro.fallback import fallback_ba
from repro.protocols import get_backend
from repro.runtime.scheduler import Simulation

PIN = Path(__file__).with_name("scale.json")

SEED = 11
CASES = (
    "weak_ba/101/50",
    "weak_ba/201/100",
    "fallback_ba/31/0",
    "cohen_strong_ba/31/3",
)
FIELDS = ("trace", "words", "signatures", "ticks", "decisions")
VALIDITY = ExternalValidity(lambda value: isinstance(value, str))


def _factory(name: str):
    if name == "weak_ba":
        return lambda ctx: weak_ba_protocol(ctx, "v", VALIDITY)
    if name == "fallback_ba":
        return lambda ctx: fallback_ba(ctx, "v")
    backend = get_backend("cohen")
    return lambda ctx: backend.strong_ba_protocol(ctx, 1)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def compute(case: str) -> list:
    """Run one case in the current tree and digest what it did."""
    name, n, f = case.split("/")
    config = SystemConfig.with_optimal_resilience(int(n))
    avoid = frozenset({0}) if name == "cohen_strong_ba" else frozenset()
    plan = SilentStrategy(avoid=avoid).plan(config, int(f), SEED)
    simulation = Simulation(config, seed=SEED, max_ticks=200_000)
    factory = _factory(name)
    apply_strategy(simulation, plan, lambda pid: factory)
    result = simulation.run()
    return [
        _sha(repr(result.trace.canonical()).encode()),
        result.correct_words,
        result.ledger.signature_count(),
        result.ticks,
        _sha(repr(sorted(result.decisions.items())).encode()),
    ]


def write(path: Path = PIN) -> int:
    """Pin every case as the current tree runs it, one row per line."""
    rows = [f"{json.dumps(case)}: {json.dumps(compute(case))}" for case in CASES]
    path.write_text("{\n" + ",\n".join(rows) + "\n}\n")
    return len(rows)


if __name__ == "__main__":
    print(f"pinned {write()} cases -> {PIN}")
