"""Fault-tolerance experiment: agreement and word bills under injected faults.

The paper's model charges the adversary for every faulty sender, so a
run perturbed by send-omission drops confined to ``lossy`` senders must
still decide and still fit the adaptive O(n(f+1)) envelope with
``f = |byzantine ∪ lossy|``.  Duplication, sub-δ delays, and reordering
are free for the adversary — and must be invisible in the word bill.

This bench sweeps drop rates over one and two lossy senders in the tick
simulator, then replays the harshest plan over real TCP sockets with a
mid-run connection reset: the transport must reconnect (with backoff)
and the socket run must reproduce the simulator's decisions *and word
counts* exactly — the fault layer is deterministic in (seed, edge,
tick, seq), not in wall-clock timing.
"""

import asyncio
import dataclasses

from repro.analysis.tables import format_table
from repro.asyncnet.tcp import run_over_tcp
from repro.config import RunParameters, SystemConfig
from repro.core.byzantine_broadcast import (
    byzantine_broadcast_protocol,
    run_byzantine_broadcast,
)
from repro.faults import ConnectionReset, FaultPlan
from repro.verify import verify_under_plan

from benchmarks._harness import publish, word_bill

CONFIG = SystemConfig(n=5, t=2)

MIXED = FaultPlan(
    seed=11,
    drop_rate=0.3,
    duplicate_rate=0.3,
    reorder_rate=0.5,
    delay_rate=0.5,
    max_delay=0.4,
    lossy=frozenset({1}),
)


def run_sim(plan: FaultPlan):
    result = run_byzantine_broadcast(
        CONFIG, sender=0, value="v", params=RunParameters(fault_plan=plan)
    )
    assert result.unanimous_decision() == "v"
    report = verify_under_plan(result, plan, expected_decision="v")
    assert report.ok, report.summary()
    return result


def test_drop_sweep_stays_inside_adaptive_envelope():
    baseline = run_byzantine_broadcast(CONFIG, sender=0, value="v")
    rows = []
    bills = []
    for lossy in (frozenset({1}), frozenset({1, 3})):
        for drop in (0.0, 0.2, 0.4, 0.8):
            plan = FaultPlan(
                seed=7,
                drop_rate=drop,
                duplicate_rate=0.3,
                reorder_rate=0.5,
                delay_rate=0.5,
                max_delay=0.4,
                lossy=lossy,
            )
            result = run_sim(plan)
            effective_f = len(plan.faulty)
            bills.append(
                word_bill(f"bb lossy={sorted(lossy)} drop={drop}", result)
            )
            rows.append(
                [
                    sorted(lossy),
                    drop,
                    effective_f,
                    result.correct_words,
                    result.ticks,
                    "yes" if result.fallback_was_used() else "no",
                ]
            )
            if drop == 0.0:
                # A plan with no drops charges nobody and changes nothing.
                assert result.correct_words == baseline.correct_words
    publish_rows = format_table(
        ["lossy senders", "drop rate", "effective f", "correct words",
         "ticks", "fallback"],
        rows,
    )
    publish(
        "fault_tolerance",
        publish_rows,
        "Every run decides the sender's value and fits the adaptive "
        "O(n(f+1)) budget with f = |lossy| (checked by verify_under_plan); "
        "duplicates, reordering, and sub-delta delays never appear in the "
        "word bill, and zero-drop plans cost exactly the failure-free bill.",
        scenario={"protocol": "bb", "n": CONFIG.n, "t": CONFIG.t,
                  "drop_rates": [0.0, 0.2, 0.4, 0.8],
                  "lossy_sets": [[1], [1, 3]], "fault_seed": 7},
        word_bills=bills,
    )


def test_tcp_run_reproduces_simulator_under_resets():
    plan = dataclasses.replace(
        MIXED, resets=(ConnectionReset(tick=18, sender=2, receiver=1),)
    )
    sim = run_sim(plan)
    tcp = asyncio.run(
        run_over_tcp(
            CONFIG,
            {
                pid: (lambda ctx: byzantine_broadcast_protocol(ctx, 0, "v"))
                for pid in CONFIG.processes
            },
            tick_duration=0.05,
            fault_plan=plan,
            timeout=60.0,
        )
    )
    assert tcp.unanimous_decision() == "v"
    assert tcp.trace.count("reconnected") >= 1  # the reset really fired
    # Cross-runtime fidelity: same plan, same seed => the socket run
    # pays exactly the simulator's word bill.
    assert tcp.correct_words == sim.correct_words
    publish(
        "fault_tolerance_tcp",
        format_table(
            ["runtime", "decision", "correct words", "reconnects"],
            [
                ["tick simulator", sim.unanimous_decision(), sim.correct_words, "-"],
                [
                    "TCP sockets",
                    tcp.unanimous_decision(),
                    tcp.correct_words,
                    tcp.trace.count("reconnected"),
                ],
            ],
        ),
        plan.describe(),
        "A mid-run connection reset on the busiest edge is absorbed by "
        "reconnect-with-backoff; the TCP run's decisions and word counts "
        "match the tick simulator's exactly under the same FaultPlan seed.",
        scenario={"protocol": "bb", "n": CONFIG.n, "t": CONFIG.t,
                  "plan": plan.describe(),
                  "reset": {"tick": 18, "sender": 2, "receiver": 1}},
        word_bills=[word_bill("tick simulator", sim),
                    word_bill("tcp sockets", tcp)],
    )
