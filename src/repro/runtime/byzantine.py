"""The interface the scheduler offers to Byzantine processes.

A Byzantine process is driven by a *behavior* object (see
:mod:`repro.adversary`) that the scheduler steps once per tick, **after**
all correct processes — together with :attr:`ByzantineApi.rushed`, this
models a rushing adversary that sees the tick's honest traffic addressed
to it before choosing its own messages.

A behavior may send arbitrary payloads to arbitrary subsets (including
nothing at all: crash/silence), sign with the corrupted process's key,
and coordinate with other corrupted processes through shared strategy
state.  It cannot forge other processes' signatures or spoof sender ids
— those guarantees live in the crypto substrate and the envelope
stamping.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Protocol

from repro.config import ProcessId, SystemConfig
from repro.crypto.certificates import CryptoSuite
from repro.crypto.keys import Signer
from repro.runtime.envelope import Envelope

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.scheduler import Simulation


class ByzantineApi:
    """Per-tick view and capabilities of one corrupted process."""

    def __init__(
        self,
        simulation: "Simulation",
        pid: ProcessId,
        inbox: list[Envelope],
        rushed: list[Envelope],
    ) -> None:
        self._simulation = simulation
        self._pid = pid
        self.inbox = inbox
        """Envelopes delivered to this process this tick."""
        self.rushed = rushed
        """Envelopes honest processes sent to this process *this* tick
        (not yet formally delivered) — rushing-adversary visibility."""

    @property
    def pid(self) -> ProcessId:
        return self._pid

    @property
    def config(self) -> SystemConfig:
        return self._simulation.config

    @property
    def suite(self) -> CryptoSuite:
        return self._simulation.suite

    @property
    def signer(self) -> Signer:
        """The corrupted process's own signing key (never anyone else's)."""
        return self._simulation.suite.signer(self._pid)

    @property
    def now(self) -> int:
        """The host's clock for this pid: the global tick on the
        simulator, the behavior's own round on a wall-clock host."""
        return self._simulation.process_now(self._pid)

    @property
    def corrupted(self) -> frozenset[ProcessId]:
        """The full corrupted set — Byzantine processes coordinate freely."""
        return frozenset(self._simulation.corrupted_now)

    def send(self, to: ProcessId, payload: object) -> None:
        """Send to one process (delivered next tick, like everyone else)."""
        self._simulation.enqueue_byzantine_send(self._pid, (to,), payload)

    def broadcast(self, payload: object) -> None:
        """Send to every other process: one multicast, billed once."""
        self._simulation.enqueue_byzantine_send(
            self._pid,
            [to for to in self.config.processes if to != self._pid],
            payload,
        )

    def emit(self, name: str, **data: Any) -> None:
        """Trace hook for adversary diagnostics."""
        self._simulation.trace.emit(
            tick=self.now, pid=self._pid, scope="byzantine", name=name, **data
        )


class ByzantineBehavior(Protocol):
    """What the scheduler requires of a behavior object.

    A behavior class may set ``passive = True``: its ``step`` never
    acts (sends nothing, emits nothing, keeps no state), so hosts may
    skip it — and the ticks in which nothing else happens.  Every other
    behavior is stepped every tick."""

    def step(self, api: ByzantineApi) -> None:
        """Act for one tick."""
        ...  # pragma: no cover
