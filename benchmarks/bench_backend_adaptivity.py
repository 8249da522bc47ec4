"""Backend differential: word-vs-f curves for both strong-BA stacks.

The conformance suite proves both backends satisfy the same
agreement/validity/termination contract; this bench publishes the
*quantitative* difference the papers claim.  At fixed n, Algorithm 5
(cohen) pays its quadratic fallback for any f >= 1, while the civit
certification stack stays on its O(n(f+1)) line until the shared
weak-BA fallback threshold (n-t-1)/2 — the measured curves land in
``results/backend_adaptivity.json`` for the CI schema gate.
"""

import repro.protocols as protocols
from repro.adversary.behaviors import SilentBehavior
from repro.config import SystemConfig

from benchmarks._harness import publish, word_bill

N = 9


def _run(backend, config, f, *, seed=0):
    byzantine = {config.n - 1 - i: SilentBehavior() for i in range(f)}
    inputs = {p: 1 for p in config.processes if p not in byzantine}
    return backend.run_strong_ba(
        config, inputs, byzantine=byzantine, seed=seed
    )


def test_backend_adaptivity_curves():
    config = SystemConfig.with_optimal_resilience(N)
    curves = {}
    bills = []
    for backend in protocols.all_backends():
        curve = {}
        for f in range(config.t + 1):
            result = _run(backend, config, f)
            assert result.unanimous_decision() == 1
            budget = backend.strong_ba_word_budget(config, f)
            assert result.correct_words <= budget
            curve[f] = result.correct_words
            bills.append(word_bill(f"{backend.name} f={f}", result))
        curves[backend.name] = curve

    cohen, civit = curves["cohen"], curves["civit"]
    lines = [
        f"strong BA words vs f at n={N} (t={config.t}), silent faults:",
        "  f   " + "".join(f"{name:>10}" for name in sorted(curves)),
    ]
    for f in range(config.t + 1):
        lines.append(
            f"  {f}   "
            + "".join(f"{curves[name][f]:>10}" for name in sorted(curves))
        )
    threshold = config.fallback_failure_threshold
    lines.append(
        f"cohen jumps quadratic at f=1 (x{cohen[1] / cohen[0]:.1f} over "
        f"f=0); civit stays linear until f >= {threshold:.1f} "
        f"(f=1 is x{civit[1] / civit[0]:.2f} over f=0)"
    )
    publish(
        "backend_adaptivity",
        "\n".join(lines),
        scenario={
            "n": N,
            "t": config.t,
            "backends": sorted(curves),
            "fallback_threshold": threshold,
        },
        word_bills=bills,
    )

    # The headline shape claims, asserted on the published numbers.
    assert cohen[1] > 5 * cohen[0]  # quadratic jump at the first fault
    assert civit[1] < 2 * civit[0]  # still on the linear envelope
    assert civit[1] < cohen[1] / 5  # the differential itself
    # Below the shared fallback threshold civit's curve stays far
    # under cohen's single-fault bill (above it both may go quadratic).
    for f in range(config.t + 1):
        if f < threshold:
            assert civit[f] < cohen[1] / 5, (f, civit[f], cohen[1])


def test_backend_adaptivity_is_seed_stable():
    """The published curves are schedule-independent facts, not lucky
    seeds: both backends bill identically across seeds at every f."""
    config = SystemConfig.with_optimal_resilience(N)
    for backend in protocols.all_backends():
        for f in (0, 1, config.t):
            words = {
                _run(backend, config, f, seed=s).correct_words
                for s in range(3)
            }
            assert len(words) == 1, (backend.name, f, words)
