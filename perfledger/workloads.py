"""The five workloads: what each pass runs, generated from ``--seed`` alone.

This module imports nothing from ``repro``: an :class:`Op` is plain
data (kind, seed, a dict of arguments) that :mod:`adapters` turns into
calls.  Shapes — ``(n, f)`` grids, fsync policies, soak instance shapes,
exploration caps — are fixed, so run time does not depend on the seed;
contents — silent targets, proposals, client commands, fault rates,
random-walk seeds — are drawn from it, so the program only ever sees
generated inputs.

A *pass* is one fixed op mix.  Pass 0 is the untimed warm pass, passes
1.. are timed.  Op ``i`` of a workload (counted across passes) uses seed
``S * 1_000_003 + i``: the per-``master_seed`` dealt-scheme and
sign/verify memos are therefore cold for every op, as they are for
independent instances, while the shape-keyed Lagrange memo warms in
pass 0.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

SEED_STRIDE = 1_000_003

WORKLOADS: dict[str, str] = {
    "sim_adaptive": (
        "n=101 decisions on the adaptive path: runtime+core do the work, crypto"
        " <=9%, so scheduler/generator gains show here and crypto ones must not"
    ),
    "sim_fallback": (
        "forced quadratic fallback up to n=101 f=50: the only workload where"
        " crypto+metrics+fallback exceed half the time"
    ),
    "mc_explore": (
        "thousands of n=4 schedules on one seed with every memo hot: deleting a"
        " cache or a heavier Simulation build shows here while sim_* stay flat"
    ),
    "smr_wal": (
        "pipelined SMR under each fsync policy plus crash/replay/load: the only"
        " workload where recovery works, on both the write and the read side"
    ),
    "net_soak": (
        "soak instances over localhost TCP and asyncio at 30/20 ms rounds under"
        " faults: timer-bound, so only round-engine changes may move it"
    ),
}

ISSUE_PASSES = {
    "sim_adaptive": 16,
    "sim_fallback": 8,
    "mc_explore": 10,
    "smr_wal": 10,
    "net_soak": 8,
}
"""Timed passes that add up to the op mix ISSUE 11 sized.  ``mc_explore``,
``smr_wal`` and ``net_soak`` were sized as one long pass; here that pass
is cut into equal slices (exploration caps and repeat counts divided
uniformly — never ``n``, ``t``, ``perm_cap`` or a tick duration) so that
a run of ``--seconds`` holds several whole passes."""


@dataclass(frozen=True)
class Op:
    """One timed unit of work, as plain data."""

    workload: str
    kind: str
    op_id: int
    """Index of the op within its workload, counted across passes."""
    seed: int
    tag: str = ""
    """Which variant of its kind the op is (``n101_f50``, ``batch``,
    ``weak_ba`` ...)."""
    args: dict = field(default_factory=dict, hash=False)
    limit_s: float = 60.0
    """Wall-clock limit; an op that exceeds it counts as failed."""


ADAPTIVE_FS = (0, 1, 12, 25)
MC_SCENARIO = {"n": 4, "t": 1, "max_ticks": 12, "perm_cap": 3}
SMR_COMMANDS_PER_CLIENT = 8
SMR_SHAPE = {"n": 5, "num_slots": 40, "window": 5, "batch_size": 2}
SOAK_SHAPES = (
    {"protocol": "weak_ba", "n": 5, "crash": True},
    {"protocol": "smr", "n": 4, "num_slots": 1, "crash": False},
)
"""The two soak instances of a ``net_soak`` pass.  The k-th instance of a
shape is the k-th index of ``derive_instance(seed, ., "mixed")`` with
that shape: everything else about it (inputs, fault rates, resets, the
crash schedule) comes from the derived stream.  A fixed shape keeps the
timer-bound instance time independent of ``--seed``."""


OP_LIMIT_S = {
    "sim_adaptive": 60.0,
    "sim_fallback": 120.0,
    "mc_explore": 60.0,
    "smr_wal": 60.0,
    "net_soak": 30.0,
}
"""Wall-clock limit of one op; an op that exceeds it counts as failed."""

# Each builder returns one pass as ``(kind, tag, args)`` triples.


def _decision(kind: str, n: int, f: int, rng: random.Random) -> tuple[str, str, dict]:
    """One simulator decision; every correct process proposes ``value``,
    so ``value`` is the decision the op must reach."""
    if kind in ("weak_ba", "bb"):
        value: object = f"proposal-{rng.randrange(10**6)}"
    else:
        value = rng.randrange(2)
    return kind, f"n{n}_f{f}", {"n": n, "f": f, "value": value}


def _sim_adaptive(rng: random.Random) -> list[tuple[str, str, dict]]:
    ops = [
        _decision(kind, 101, f, rng)
        for kind in ("weak_ba", "bb", "civit_strong_ba")
        for f in ADAPTIVE_FS
    ]
    return ops + [_decision("cohen_strong_ba", 101, 0, rng)]


def _sim_fallback(rng: random.Random) -> list[tuple[str, str, dict]]:
    return [
        _decision("weak_ba", 31, 15, rng),
        _decision("weak_ba", 51, 25, rng),
        _decision("weak_ba", 101, 50, rng),
        _decision("cohen_strong_ba", 31, 3, rng),
        _decision("fallback_ba", 31, 0, rng),
    ]


def _mc_explore(rng: random.Random) -> list[tuple[str, str, dict]]:
    weak = {"scenario": "weak-ba", "params": MC_SCENARIO}
    civit = {"scenario": "civit-strong-ba", "params": {}}
    return [
        ("mc_proof", "", dict(weak, prune="behavior", max_runs=100_000)),
        ("mc_history", "", dict(weak, prune="history", max_runs=600)),
        ("mc_random", "", dict(weak, runs=250)),  # walk seeds: see pass_ops
        ("mc_random", "", dict(weak, runs=250)),
        ("mc_civit", "", dict(civit, prune="behavior", max_runs=400)),
    ]


def _smr_commands(rng: random.Random) -> list[dict]:
    """Ten clients of eight commands, two clients homed on each replica:
    every replica leads 8 of the 40 slots with 16 distinct commands to
    fill them at batch 2, so all 80 commands commit exactly once."""
    homes = [pid for pid in range(SMR_SHAPE["n"]) for _ in range(2)]
    rng.shuffle(homes)
    clients = []
    for index, home in enumerate(homes):
        ops = []
        for _ in range(SMR_COMMANDS_PER_CLIENT):
            key = f"k{rng.randrange(16)}"
            if rng.random() < 0.2:
                ops.append(("del", key))
            else:
                ops.append(("set", key, rng.randrange(1000)))
        clients.append({"client": f"c{index}", "ops": ops, "replicas": [home]})
    return clients


def _smr_wal(rng: random.Random) -> list[tuple[str, str, dict]]:
    ops: list[tuple[str, str, dict]] = []
    for fsync in (None, "never", "batch", "always", None, "never", "batch"):
        args = {"shape": SMR_SHAPE, "fsync": fsync, "clients": _smr_commands(rng)}
        ops.append(("smr", fsync or "memory", args))
    crash = {"n": 13, "pid": 2, "at_tick": 3, "restart_tick": 6}
    for _ in range(2):
        value = f"proposal-{rng.randrange(10**6)}"
        ops.append(("crash_recover", "", dict(crash, value=value)))
    return ops


def _net_soak(rng: random.Random, master_seed: int, pass_index: int):
    ops: list[tuple[str, str, dict]] = []
    for slot, shape in enumerate(SOAK_SHAPES):
        args = {
            "master_seed": master_seed,
            "shape": shape,
            "occurrence": pass_index,
            "serial": pass_index * len(SOAK_SHAPES) + slot,
            "tick_duration": 0.03,
        }
        ops.append(("soak_instance", shape["protocol"], args))
    # Message-level fault rates in the ranges of the soak fleet's "mixed"
    # profile (no drops: every sender stays correct).
    plan = {
        "duplicate_rate": rng.uniform(0.0, 0.25),
        "delay_rate": rng.uniform(0.0, 0.3),
        "reorder_rate": rng.uniform(0.1, 0.4),
        "max_delay": 0.4,
    }
    args = {
        "n": 7,
        "tick_duration": 0.02,
        "value": f"proposal-{rng.randrange(10**6)}",
        "plan": plan,
    }
    ops.append(("async_weak_ba", "", args))
    return ops


def pass_ops(workload: str, seed: int, pass_index: int) -> list[Op]:
    """The ops of one pass — a pure function of its arguments."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {sorted(WORKLOADS)}")
    rng = random.Random(f"{workload}/{seed}/{pass_index}")
    if workload == "sim_adaptive":
        raw = _sim_adaptive(rng)
    elif workload == "sim_fallback":
        raw = _sim_fallback(rng)
    elif workload == "mc_explore":
        raw = _mc_explore(rng)
    elif workload == "smr_wal":
        raw = _smr_wal(rng)
    else:
        raw = _net_soak(rng, seed, pass_index)
    first = pass_index * len(raw)
    ops = []
    for offset, (kind, tag, args) in enumerate(raw):
        op_seed = seed * SEED_STRIDE + first + offset
        if kind == "mc_random":
            # Walk j of a random exploration uses walk_seed + j, so
            # consecutive ops must sit a whole stride apart.
            args = dict(args, walk_seed=op_seed * SEED_STRIDE)
        ops.append(
            Op(
                workload=workload,
                kind=kind,
                op_id=first + offset,
                seed=op_seed,
                tag=tag,
                args=args,
                limit_s=OP_LIMIT_S[workload],
            )
        )
    return ops
