"""The protocol table: every name a driver stamps into a WAL replays.

Parametrised over the table itself and driven through its one driver,
so entries whose public ``run_*`` takes no ``params`` are covered too,
and a new entry is tested the moment it is added.
"""

import pytest

from repro.apps import ClientWorkload
from repro.apps.clients import assign_queues
from repro.config import RunParameters, SystemConfig
from repro.core.weak_ba import run_weak_ba
from repro.errors import ConfigurationError
from repro.faults import FaultPlan, ProcessCrash
from repro.protocols.table import (
    PROTOCOLS,
    get_protocol,
    run_protocol,
    string_validity,
)
from repro.recovery import RecoveryManager, load_history, replay_wal

pytestmark = pytest.mark.filterwarnings(
    "error::pytest.PytestUnraisableExceptionWarning"
)

N5 = SystemConfig.with_optimal_resilience(5)
CRASHED = 2  # neither a sender nor a leader in any entry
QUEUES = assign_queues(
    [
        ClientWorkload("a", (("set", "x", 1), ("set", "y", 2)), (0, 1, 2)),
        ClientWorkload("b", (("set", "z", 3), ("del", "x")), (2, 3, 4)),
    ],
    N5,
)
LOG_METAS = {
    # The replicated logs take a command queue, not one value.
    "smr": lambda p: {"num_slots": 3, "commands": (("set", f"k{p}", p),)},
    "batched_smr": lambda p: {
        "num_slots": 3, "batch_size": 2, "queue": tuple(QUEUES[p]),
    },
    "pipelined_smr": lambda p: {
        "num_slots": 4, "window": 2, "batch_size": 2, "queue": tuple(QUEUES[p]),
    },
}


def _deployment(entry):
    """``(config, metas)`` for one run of ``entry``."""
    if entry.proposal is None:
        return N5, {p: LOG_METAS[entry.name](p) for p in N5.processes}
    # Phase king needs n >= 4t + 1; every other entry runs at n = 2t + 1.
    config = SystemConfig(n=5, t=1) if entry.name == "phase_king" else N5
    return config, entry.metas(config.processes, entry.proposal)


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_crashed_process_rejoins_and_its_wal_replays_offline(name, tmp_path):
    entry = PROTOCOLS[name]
    config, metas = _deployment(entry)
    assert CRASHED not in entry.shielded
    recovery = RecoveryManager(tmp_path)
    plan = FaultPlan(
        seed=7, crashes=(ProcessCrash(pid=CRASHED, at_tick=2, restart_tick=4),)
    )
    result = run_protocol(
        name, config, metas, seed=7,
        params=RunParameters(seed=7, fault_plan=plan, recovery=recovery),
        validity=string_validity,
    )
    assert result.recovered == frozenset({CRASHED})
    assert recovery.stats.restarts == 1

    stem = tmp_path / f"p{CRASHED}"
    assert load_history(stem).meta["protocol"] == name
    replayed = replay_wal(stem)  # no factory=: the table rebuilds it
    assert replayed.decided
    assert replayed.decision == result.decisions[CRASHED]


def test_lookup_by_canonical_name_or_cli_spelling():
    for entry in PROTOCOLS.values():
        assert get_protocol(entry.name) is entry
        if entry.cli is not None:
            assert get_protocol(entry.cli) is entry
    with pytest.raises(ConfigurationError, match="known: "):
        get_protocol("paxos")


def test_params_seed_must_match_the_driver_seed(tmp_path):
    """``RunParameters.seed`` is not what seeds a run; a conflicting one
    must be refused rather than silently run (and logged) under the
    driver's ``seed=``."""
    inputs = {p: "v" for p in N5.processes}
    params = RunParameters(seed=5, recovery=RecoveryManager(tmp_path))
    with pytest.raises(ConfigurationError, match=r"params\.seed=5.*seed=0"):
        run_weak_ba(N5, inputs, string_validity, params=params)
    result = run_weak_ba(N5, inputs, string_validity, seed=5, params=params)
    params.recovery.close()
    assert result.unanimous_decision() == "v"
    assert load_history(tmp_path / "p0").meta["seed"] == 5
