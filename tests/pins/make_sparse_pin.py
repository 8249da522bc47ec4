"""Golden pin for ISSUE 23 (sparse time): what every table row did at
the *parent* commit, tick for tick.

``python tests/pins/make_sparse_pin.py`` (with ``PYTHONPATH=src``)
rewrites ``sparse_time.json`` from whatever tree it is run in; it was
run once, on a checkout of the parent commit, and
``tests/test_sparse_time.py`` asserts the current tree reproduces the
file exactly.  Regenerate it only when a change is *meant* to move a
trace, a bill, a tick number or a WAL byte.

A case is ``protocol/n/seed/f/variant``: ``f`` corrupted processes
(seeded targets, never a row's sender/leader) that are silent, echo or
spam garbage, or — ``split`` — silent while the correct processes
propose distinct values, which is what pushes the paper's protocols
into the quadratic fallback.  ``crash`` cases take p2 down for a window
with a WAL and additionally pin the bytes on disk and every process's
absorbed history (what replay reads: per-tick send highwater marks,
inboxes, down windows).

The ``wal`` bytes were re-pinned when the hosts began writing one
``sends`` frame per multicast instead of one per copy; the ``history``
column was computed on the tree before that change, so it proves the
absorbed histories did not move.  Both columns were re-pinned once more
when the WAL stopped mirroring trace events (no ``event`` frames, and
no ``events`` in the history); every other column, and every non-crash
row, stayed byte-identical.  Only the ``wal`` column was re-pinned when
envelopes dropped their ``receiver`` field (``inbox`` frames pickle the
shorter envelope); ``history`` still spells each inbox copy with its
receiver, now read from the WAL stem's pid, and did not move.  When a
threshold signature traded its signer set for its quorum ``k`` and
committee scheme ids became fixed-width digests, ``trace`` was re-pinned
in the SMR-family rows (their idk decisions embed a certificate's repr)
and ``wal``/``history`` in the crash rows; ``tests/pins/diff.py`` showed
every other column unmoved.  The crash rows' ``wal``/``history`` moved
once more, alone, when the WAL format became 2 (each ``meta`` record
stamps ``wal_format=2``; ``diff.py OLD NEW --allow wal,history`` exits
0).
"""

from __future__ import annotations

import hashlib
import json
import random
import tempfile
from pathlib import Path

from repro.adversary.behaviors import EchoBehavior, GarbageSpammer, SilentBehavior
from repro.apps import ClientWorkload
from repro.apps.clients import assign_queues
from repro.config import RunParameters, SystemConfig
from repro.faults import FaultPlan, ProcessCrash
from repro.protocols.table import PROTOCOLS, run_protocol, string_validity
from repro.recovery import RecoveryManager, load_history

PIN = Path(__file__).with_name("sparse_time.json")

SIZES = (5, 7, 11, 17)
SEEDS = (0, 1, 2)
BEHAVIORS = {
    "silent": SilentBehavior,
    "echo": EchoBehavior,
    "garbage": GarbageSpammer,
    "split": SilentBehavior,
}
CRASH_WINDOWS = ((3, 6), (2, 9), (7, 20))
CRASHED = 2  # neither a sender nor a leader in any row


def _config(name: str, n: int) -> SystemConfig:
    # Phase king needs n >= 4t + 1; every other row runs at n = 2t + 1.
    if name == "phase_king":
        return SystemConfig(n=n, t=(n - 1) // 4)
    return SystemConfig.with_optimal_resilience(n)


def _metas(name: str, config: SystemConfig, split: bool) -> dict:
    entry = PROTOCOLS[name]
    if entry.proposal is not None:
        if not split:
            proposal = entry.proposal
        elif entry.binary:
            proposal = lambda pid: pid % 2  # noqa: E731
        else:
            proposal = lambda pid: f"v{pid % 3}"  # noqa: E731
        return entry.metas(config.processes, proposal)
    queues = assign_queues(
        [
            ClientWorkload("a", (("set", "x", 1), ("set", "y", 2)), (0, 1, 2)),
            ClientWorkload("b", (("set", "z", 3), ("del", "x")), (2, 3, 4)),
        ],
        config,
    )
    if name == "smr":
        return {
            p: {"num_slots": 2, "commands": (("set", f"k{p}", p),)}
            for p in config.processes
        }
    if name == "batched_smr":
        return {
            p: {"num_slots": 2, "batch_size": 2, "queue": tuple(queues[p])}
            for p in config.processes
        }
    return {
        p: {"num_slots": 3, "window": 2, "batch_size": 2, "queue": tuple(queues[p])}
        for p in config.processes
    }


def cases() -> list[str]:
    """Every case id, in file order."""
    ids = []
    for name in sorted(PROTOCOLS):
        for n in SIZES:
            t = _config(name, n).t
            for seed in SEEDS:
                for f in sorted({0, 1, t}):
                    for variant in BEHAVIORS:
                        if f == 0 and variant in ("echo", "garbage"):
                            continue  # nobody to misbehave
                        ids.append(f"{name}/{n}/{seed}/{f}/{variant}")
        for down, up in CRASH_WINDOWS:
            ids.append(f"{name}/5/{down}/{up}/crash")
    return ids


FIELDS = (
    "trace", "words", "signatures", "ticks", "decisions", "halted_at", "wal",
    "history",
)
"""What a pinned row lists, in order (``wal`` and ``history`` only for
crash cases); texts and bytes are pinned by the first 16 hex digits of
their sha256."""


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _histories(wal_dir: Path) -> bytes:
    """Every process's absorbed WAL, canonically spelled.  An inbox's
    receiver is the process whose WAL it is: stem ``p<pid>``."""
    rows = []
    for stem in sorted({path.with_suffix("") for path in wal_dir.iterdir()}):
        history = load_history(stem)
        receiver = int(stem.name.removeprefix("p"))
        inboxes = [
            (tick, [
                (e.sender, receiver, e.sent_at, e.delivered_at, repr(e.payload))
                for e in envelopes
            ])
            for tick, envelopes in sorted(history.inboxes.items())
        ]
        rows.append((
            stem.name, sorted(history.meta.items()), sorted(history.sends.items()),
            inboxes, history.down_windows, history.through_tick,
        ))
    return repr(rows).encode()


def _digest(result, wal: bytes | None = None, history: bytes = b"") -> list:
    row = [
        _sha(repr(result.trace.canonical()).encode()),
        result.correct_words,
        result.ledger.signature_count(),
        result.ticks,
        _sha(repr(sorted(result.decisions.items())).encode()),
        _sha(repr(sorted(result.halted_at.items())).encode()),
    ]
    return row if wal is None else row + [_sha(wal), _sha(history)]


def compute(case: str) -> list:
    """Run one case in the current tree and digest what it did."""
    name, n, a, b, variant = case.split("/")
    config = _config(name, int(n))
    shielded = PROTOCOLS[name].shielded
    if variant == "crash":
        down, up = int(a), int(b)
        with tempfile.TemporaryDirectory() as wal_dir:
            recovery = RecoveryManager(wal_dir)
            plan = FaultPlan(seed=5, crashes=(ProcessCrash(CRASHED, down, up),))
            result = run_protocol(
                name, config, _metas(name, config, False), seed=5,
                params=RunParameters(seed=5, fault_plan=plan, recovery=recovery),
                validity=string_validity,
            )
            files = sorted(Path(wal_dir).iterdir())
            blob = b"".join(p.name.encode() + p.read_bytes() for p in files)
            history = _histories(Path(wal_dir))
        return _digest(result, blob, history)
    seed, f = int(a), int(b)
    candidates = [p for p in config.processes if p not in shielded]
    targets = sorted(random.Random(seed).sample(candidates, f))
    metas = _metas(name, config, variant == "split")
    result = run_protocol(
        name, config, {p: m for p, m in metas.items() if p not in targets},
        seed=seed, byzantine={p: BEHAVIORS[variant]() for p in targets},
        params=RunParameters(seed=seed, max_ticks=200_000),
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
