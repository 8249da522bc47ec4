"""Byzantine behavior objects.

A behavior is stepped once per tick with a
:class:`~repro.runtime.byzantine.ByzantineApi` giving it the corrupted
process's deliveries, rushing visibility, signing key, and send
capability.  Behaviors here are protocol-agnostic; protocol-targeted
attacks (e.g. equivocating *weak-BA leaders*) live next to the protocol
tests that exercise them, built from these primitives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.crypto.signatures import sign_value
from repro.runtime.byzantine import ByzantineApi


@dataclass
class SilentBehavior:
    """Sends nothing, ever — an immediately crashed process.

    Crash failures *during* a run are modeled by
    :meth:`repro.runtime.scheduler.Simulation.schedule_corruption` with
    this behavior: the process follows the protocol honestly until the
    crash tick, then falls silent.

    A dataclass like every other behavior: the model checker's
    ``"behavior"`` fingerprint hashes ``repr(behavior)``, so a default
    object repr (which embeds a memory address) would make pruning
    nondeterministic across explorations.
    """

    passive = True

    def step(self, api: ByzantineApi) -> None:
        return None


@dataclass
class DelayedSilence:
    """Arbitrary behavior until ``silent_from``, silence afterwards."""

    inner: object
    silent_from: int

    def step(self, api: ByzantineApi) -> None:
        if api.now < self.silent_from:
            self.inner.step(api)


@dataclass
class EchoBehavior:
    """Reflects every payload a correct process delivered back to it.

    A cheap liveness stressor: protocols must ignore out-of-context
    messages.  Payloads from corrupted senders (itself, after a mid-run
    corruption, or another echo) are not reflected: two echoes would
    bounce them forever, growing exponentially under duplication faults.
    """

    def step(self, api: ByzantineApi) -> None:
        for envelope in api.inbox:
            if envelope.sender not in api.corrupted:
                api.send(envelope.sender, envelope.payload)


@dataclass
class EquivocatingSender:
    """A Byzantine BB sender: signs ``value_a`` for half the processes
    and ``value_b`` for the rest (at tick 0), then stays silent.

    Used against Algorithm 1: the sender-signed values are *both* valid
    under ``BB_valid``, so agreement must come from the weak BA.
    """

    value_a: object
    value_b: object
    make_payload: Callable[[object, object], object] | None = None
    """Optional payload wrapper ``(signed_value, api) -> payload``."""

    def step(self, api: ByzantineApi) -> None:
        if api.now != 0:
            return
        for pid in api.config.processes:
            if pid == api.pid:
                continue
            value = self.value_a if pid % 2 == 0 else self.value_b
            signed = sign_value(api.signer, value)
            payload = (
                self.make_payload(signed, api)
                if self.make_payload is not None
                else signed
            )
            api.send(pid, payload)


@dataclass
class FallbackForcer:
    """Floods ``help_req``-shaped payloads to push protocols toward
    their fallback path even when honest processes have decided.

    ``payload_factory(api)`` builds the protocol-specific help request;
    it is sent to everyone for ``duration`` ticks starting at ``start``.
    """

    payload_factory: Callable[[ByzantineApi], object]
    start: int = 0
    duration: int = 1_000_000

    def step(self, api: ByzantineApi) -> None:
        if self.start <= api.now < self.start + self.duration:
            payload = self.payload_factory(api)
            if payload is not None:
                api.broadcast(payload)


@dataclass
class GarbageSpammer:
    """Broadcasts malformed payloads every tick.

    Protocol robustness check: validators must reject garbage without
    raising, and word accounting must not attribute adversary words to
    correct processes.
    """

    every: int = 1
    payloads: tuple = (
        "garbage",
        ("tuple", "of", "junk"),
        42,
        None,
    )
    _counter: int = field(default=0, init=False)

    def step(self, api: ByzantineApi) -> None:
        if api.now % self.every != 0:
            return
        payload = self.payloads[self._counter % len(self.payloads)]
        self._counter += 1
        if payload is not None:
            api.broadcast(payload)
