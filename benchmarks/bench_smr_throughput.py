"""Application-level benchmark: SMR throughput on adaptive BB.

The paper's protocols exist to make systems like this cheap.  Measured
here: commands committed per simulated round for the sequential,
batched, and pipelined replication modes, failure-free and with a
crashed replica.
"""

from repro.adversary.behaviors import SilentBehavior
from repro.analysis.tables import format_table
from repro.apps.clients import ClientWorkload
from repro.apps.pipelined import run_pipelined_smr
from repro.apps.smr import run_smr
from repro.config import SystemConfig

from benchmarks._harness import publish

N = 5
COMMANDS = 10
SLOTS = 10


def _workloads():
    return [
        ClientWorkload(
            client=f"c{i}",
            ops=(("set", f"k{i}", i),),
            replicas=(i % N, (i + 1) % N),
        )
        for i in range(COMMANDS)
    ]


def test_pipelining_multiplies_throughput():
    config = SystemConfig.with_optimal_resilience(N)
    workloads = _workloads()

    simple = run_smr(
        config,
        {pid: [("set", f"k{pid}", pid)] for pid in config.processes},
        num_slots=SLOTS,
    )
    batched = run_pipelined_smr(
        config, workloads, num_slots=SLOTS, window=1, batch_size=2
    )
    pipelined = run_pipelined_smr(
        config, workloads, num_slots=SLOTS, window=5, batch_size=2
    )

    rows = []
    for label, result, commits in (
        ("one-command slots", simple, len(simple.unanimous_decision().log)),
        ("batched", batched, len(batched.unanimous_decision().log)),
        ("batched + pipelined (w=5)", pipelined,
         len(pipelined.unanimous_decision().log)),
    ):
        rows.append(
            [
                label,
                commits,
                result.ticks,
                f"{commits / result.ticks:.3f}",
                result.correct_words,
            ]
        )
    publish(
        "smr_throughput",
        format_table(
            ["mode", "commits", "rounds", "commits/round", "words"], rows
        ),
        "Pipelining divides latency by ~window at identical word cost "
        "per slot; the protocols underneath are untouched.",
    )
    assert (
        dict(batched.unanimous_decision().state)
        == dict(pipelined.unanimous_decision().state)
    )
    throughput = {row[0]: float(row[3]) for row in rows}
    assert throughput["batched + pipelined (w=5)"] > 3 * throughput["batched"]


def test_pipelined_smr_with_failures():
    config = SystemConfig.with_optimal_resilience(N)
    workloads = _workloads()
    byzantine = {2: SilentBehavior()}
    result = run_pipelined_smr(
        config,
        workloads,
        num_slots=SLOTS,
        window=5,
        batch_size=2,
        byzantine=byzantine,
    )
    outcome = result.unanimous_decision()
    publish(
        "smr_throughput_degraded",
        f"crashed replica 2: {len(outcome.log)} of {COMMANDS} commands "
        f"committed in {result.ticks} rounds, {result.correct_words} words "
        "(fan-out submission routed around the dead replica).",
    )
    assert len(outcome.log) == COMMANDS
