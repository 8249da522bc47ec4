"""Deterministic chaos planning for the soak fleet.

One master seed determines *everything* the fleet does: which protocol
each instance runs, its deployment size, its inputs, and the exact
fault plan thrown at it.  ``derive_instance(master_seed, index,
profile)`` is a pure function, so a violation artifact only needs to
record ``(master_seed, index, profile)`` to replay the failing instance
bit-for-bit — the same property :func:`repro.config.derive_rng` gives
every other seeded subsystem in the repo.

A :class:`ChaosProfile` is the knob set the CLI exposes as
``--chaos-profile``: per-instance probabilities of a mid-phase crash
(with WAL rejoin) and injected connection resets, plus the ranges the
message-level fault rates (reorder / duplicate / delay / selective
loss) are drawn from.  The derivation never allocates more faulty
senders than ``t`` — crash and lossy pids share the resilience budget,
exactly as :meth:`FaultPlan.faulty <repro.faults.plan.FaultPlan>`
accounts them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.config import derive_rng
from repro.faults.plan import ConnectionReset, FaultPlan, ProcessCrash

_SOAK_TAG = 0x50A1
"""Domain tag for the per-instance derivation stream."""
_INDEX_MIX = 0x9E3779B1
"""Golden-ratio multiplier decorrelating consecutive instance indices."""

WEAK_BA = "weak_ba"
SMR = "smr"
CIVIT_SBA = "civit_strong_ba"

DEFAULT_TICK = 0.03
"""Round length for soak instances — generous enough that localhost
scheduling jitter almost never moves a delivery across a round
boundary (the worker retries with a doubled tick when it does)."""


@dataclass(frozen=True)
class ChaosProfile:
    """Per-instance fault mix for one ``--chaos-profile`` setting."""

    name: str
    smr_weight: float
    """Probability an instance runs the SMR app instead of weak BA."""
    crash_weight: float
    """Probability of one mid-phase process crash with WAL rejoin."""
    reset_weight: float
    """Probability of injected TCP connection resets."""
    lossy_weight: float
    """Probability of one selectively-lossy sender (if budget allows)."""
    reorder: tuple[float, float]
    duplicate: tuple[float, float]
    delay: tuple[float, float]
    drop: tuple[float, float]
    max_delay: float
    n_choices: tuple[int, ...]
    civit_weight: float = 0.0
    """Probability a non-SMR instance runs the civit strong BA instead
    of the cohen weak BA.  **Stream compatibility:** the derivation only
    consumes randomness for this pick when the weight is positive, so
    every ``(master_seed, index)`` stream of the pre-backend profiles
    replays bit-for-bit (``tests/test_soak.py`` pins this)."""


PROFILES: dict[str, ChaosProfile] = {
    "calm": ChaosProfile(
        name="calm",
        smr_weight=0.3,
        crash_weight=0.0,
        reset_weight=0.0,
        lossy_weight=0.0,
        reorder=(0.0, 0.0),
        duplicate=(0.0, 0.0),
        delay=(0.0, 0.0),
        drop=(0.0, 0.0),
        max_delay=0.4,
        n_choices=(4,),
    ),
    "mixed": ChaosProfile(
        name="mixed",
        smr_weight=0.3,
        crash_weight=0.35,
        reset_weight=0.35,
        lossy_weight=0.0,
        reorder=(0.1, 0.4),
        duplicate=(0.0, 0.25),
        delay=(0.0, 0.3),
        drop=(0.0, 0.0),
        max_delay=0.4,
        n_choices=(4, 5),
    ),
    "backends": ChaosProfile(
        name="backends",
        smr_weight=0.2,
        crash_weight=0.35,
        reset_weight=0.35,
        lossy_weight=0.0,
        reorder=(0.1, 0.4),
        duplicate=(0.0, 0.25),
        delay=(0.0, 0.3),
        drop=(0.0, 0.0),
        max_delay=0.4,
        n_choices=(4, 5),
        civit_weight=0.5,
    ),
    "heavy": ChaosProfile(
        name="heavy",
        smr_weight=0.3,
        crash_weight=0.6,
        reset_weight=0.6,
        lossy_weight=0.3,
        reorder=(0.2, 0.5),
        duplicate=(0.1, 0.35),
        delay=(0.1, 0.35),
        drop=(0.05, 0.15),
        max_delay=0.4,
        n_choices=(4, 5),
    ),
}


@dataclass(frozen=True)
class InstanceSpec:
    """Everything one soak instance needs, picklable for the pool.

    ``seed`` drives the crypto suite and the fault plan of the instance
    itself; ``(master_seed, index, profile)`` suffice to re-derive the
    whole spec (see :func:`derive_instance`), which is what violation
    artifacts record.
    """

    index: int
    master_seed: int
    profile: str
    protocol: str
    n: int
    t: int
    seed: int
    inputs: tuple[str, ...]
    """Weak-BA proposals, one per pid (unused for SMR)."""
    commands: tuple[tuple[str, ...], ...]
    """SMR command schedule, one tuple per pid (unused for weak BA)."""
    num_slots: int
    plan: FaultPlan | None
    tick_duration: float
    inject: str | None = None
    """Deliberate accounting sabotage for auditor tests — see
    :mod:`repro.soak.worker` for the recognized tags."""

    def metas(self) -> dict[int, dict]:
        """One protocol-table meta per pid: what both the simulator
        oracle and the TCP run build their factories from."""
        from repro.protocols.table import PROTOCOLS

        if self.protocol == SMR:
            return {
                pid: {"num_slots": self.num_slots, "commands": queue}
                for pid, queue in enumerate(self.commands)
            }
        entry = PROTOCOLS[self.protocol]
        inputs = self.inputs
        if entry.binary:
            # The derivation predates backends; reusing its proposal
            # strings keeps replay to (master_seed, index, profile).
            inputs = [int(value != "v-even") for value in inputs]
        return entry.metas(range(self.n), inputs.__getitem__)


def derive_instance(
    master_seed: int,
    index: int,
    profile: ChaosProfile,
    *,
    tick_duration: float = DEFAULT_TICK,
    inject: str | None = None,
) -> InstanceSpec:
    """The pure spec-derivation function: same arguments, same spec."""
    rng = derive_rng(master_seed, _SOAK_TAG ^ (index * _INDEX_MIX))
    protocol = SMR if rng.random() < profile.smr_weight else WEAK_BA
    if (
        profile.civit_weight > 0
        and protocol == WEAK_BA
        and rng.random() < profile.civit_weight
    ):
        protocol = CIVIT_SBA
    n = profile.n_choices[rng.randrange(len(profile.n_choices))]
    t = (n - 1) // 2
    seed = rng.randrange(2**31)

    if rng.random() < 0.6:
        inputs = tuple("v-common" for _ in range(n))
    else:
        inputs = tuple(
            "v-even" if rng.random() < 0.5 else "v-odd" for _ in range(n)
        )
    num_slots = rng.randint(1, 2)
    commands = tuple((f"set k{pid} v{pid}",) for pid in range(n))

    faulty_budget = t
    crashes: tuple[ProcessCrash, ...] = ()
    if faulty_budget > 0 and rng.random() < profile.crash_weight:
        pid = rng.randrange(n)
        at = rng.randint(2, 5)
        crashes = (
            ProcessCrash(
                pid=pid, at_tick=at, restart_tick=at + rng.randint(2, 4)
            ),
        )
        faulty_budget -= 1
    lossy: frozenset[int] = frozenset()
    drop_rate = 0.0
    if faulty_budget > 0 and rng.random() < profile.lossy_weight:
        crashed = {c.pid for c in crashes}
        candidates = [pid for pid in range(n) if pid not in crashed]
        lossy = frozenset({candidates[rng.randrange(len(candidates))]})
        drop_rate = rng.uniform(*profile.drop)
    resets: tuple[ConnectionReset, ...] = ()
    if rng.random() < profile.reset_weight:
        for _ in range(rng.randint(1, 2)):
            sender = rng.randrange(n)
            receiver = rng.randrange(n - 1)
            if receiver >= sender:
                receiver += 1
            resets += (
                ConnectionReset(
                    tick=rng.randint(1, 6), sender=sender, receiver=receiver
                ),
            )

    plan: FaultPlan | None = FaultPlan(
        seed=seed,
        drop_rate=drop_rate,
        duplicate_rate=rng.uniform(*profile.duplicate),
        delay_rate=rng.uniform(*profile.delay),
        reorder_rate=rng.uniform(*profile.reorder),
        max_delay=profile.max_delay,
        lossy=lossy,
        resets=resets,
        crashes=crashes,
    )
    if (
        not crashes
        and not resets
        and not lossy
        and plan.duplicate_rate == 0.0
        and plan.delay_rate == 0.0
        and plan.reorder_rate == 0.0
        and plan.drop_rate == 0.0
    ):
        plan = None

    return InstanceSpec(
        index=index,
        master_seed=master_seed,
        profile=profile.name,
        protocol=protocol,
        n=n,
        t=t,
        seed=seed,
        inputs=inputs,
        commands=commands,
        num_slots=num_slots,
        plan=plan,
        tick_duration=tick_duration,
        inject=inject,
    )


def with_inject(spec: InstanceSpec, inject: str | None) -> InstanceSpec:
    """The same instance with sabotage toggled (used by auditor tests)."""
    return replace(spec, inject=inject)
