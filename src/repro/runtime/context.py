"""Per-process execution context for correct processes.

A correct process is a generator function ``protocol(ctx)`` that:

* sends with :meth:`ProcessContext.multicast` (or its shorthands
  :meth:`~ProcessContext.send` and :meth:`~ProcessContext.broadcast`);
* advances one tick (= one ``delta``) with a bare ``yield``, after which
  :attr:`ProcessContext.inbox` holds the envelopes delivered this tick;
* waits longer by yielding a *wake-up deadline* in :attr:`now` units —
  usually through :meth:`idle` / :meth:`sleep` — and is resumed at the
  first tick something is delivered to it, or else at the deadline;
* composes sub-protocols with ``yield from`` (same context flows down);
* returns its decision.

Scopes
------
:meth:`scope` pushes a protocol-layer label (``"bb"``, ``"weak_ba"``,
``"fallback"``) onto the context; every send and event is attributed to
the current scope path, which is how the Figure 1 composition benchmark
knows which layer paid for which word.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from functools import cached_property
from typing import TYPE_CHECKING, Any, Generator, Iterator, Sequence

from repro.config import ProcessId, SystemConfig
from repro.crypto.certificates import CryptoSuite
from repro.crypto.keys import Signer
from repro.runtime.envelope import Envelope

if TYPE_CHECKING:  # pragma: no cover
    from repro.recovery.replay import ReplayCursor
    from repro.runtime.scheduler import Simulation


class ProcessContext:
    """Everything a correct process can see and do.

    ``simulation`` is the host driving the process — the tick scheduler
    or the wall-clock network of :mod:`repro.asyncnet`; the context uses
    only the host surface listed in :mod:`repro.runtime.host`."""

    def __init__(self, simulation: "Simulation", pid: ProcessId) -> None:
        self._simulation = simulation
        self._pid = pid
        self._signer: Signer = simulation.suite.signer(pid)
        self._scope_stack: list[str] = []
        self._replay: "ReplayCursor | None" = None
        self.inbox: list[Envelope] = []
        self.now: int = simulation.process_now(pid)
        """Current round (the paper's ``now``), stamped — like
        :attr:`inbox` — by whoever resumes the generator: the global tick
        under lockstep ``delta=1``, the process's own round index under a
        paced model, the replayed tick during WAL replay, so protocol
        timers ("wait until ``now + 2``") count rounds everywhere."""

    @cached_property
    def rng(self) -> random.Random:
        """The process's deterministic random stream, seeded from the run
        seed and the pid on first use (most protocols never draw)."""
        return random.Random(
            (self._simulation.seed * 1_000_003 + self._pid) & 0xFFFFFFFF
        )

    # ------------------------------------------------------------------
    # Identity / environment
    # ------------------------------------------------------------------

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
        return self._signer

    @property
    def scope_path(self) -> str:
        return "/".join(self._scope_stack) or "top"

    # ------------------------------------------------------------------
    # Communication
    # ------------------------------------------------------------------

    def multicast(self, recipients: Sequence[ProcessId], payload: object) -> None:
        """Send ``payload`` to every process in ``recipients`` (in that
        order); each copy is delivered next tick.  The host bills the
        multicast once, whatever the number of recipients.

        In replay mode the copies are counted against the WAL's
        highwater mark but never reach the network — the cluster already
        received them the first time.  Self-delivery is free, never
        billed nor counted."""
        if self._replay is not None:
            pid = self._pid
            self._replay.note_send(sum(1 for to in recipients if to != pid))
            return
        self._simulation.enqueue_send(self._pid, recipients, payload, self.scope_path)

    def send(self, to: ProcessId, payload: object) -> None:
        """Send ``payload`` to ``to``: a multicast with one recipient."""
        self.multicast((to,), payload)

    def broadcast(self, payload: object, include_self: bool = True) -> None:
        """Multicast ``payload`` to every process (self-delivery is free).

        The paper's "broadcast to all" includes the sender acting on its
        own message; set ``include_self=False`` where the pseudocode
        clearly excludes it.
        """
        processes = self.config.processes
        if not include_self:
            processes = [to for to in processes if to != self._pid]
        self.multicast(processes, payload)

    # ------------------------------------------------------------------
    # Instrumentation
    # ------------------------------------------------------------------

    def emit(self, name: str, **data: Any) -> None:
        """Record a structured trace event.

        Replay suppresses emission (the live run already traced the
        event; re-emitting would double ``decided`` markers and break
        the decide-once checker) but counts it for the replay report.
        Live emits are mirrored into the process's WAL when the run has
        a recovery manager — these are the logged protocol-state
        transitions (phase entries, acquired values, certificates)."""
        if self._replay is not None:
            self._replay.note_event()
            return
        self._simulation.trace.emit(
            tick=self.now, pid=self._pid, scope=self.scope_path, name=name, **data
        )
        recovery = self._simulation.recovery
        if recovery is not None:
            recovery.on_event(
                self._pid, self.now, self.scope_path, name,
                tuple(sorted(data.items())),
            )

    # ------------------------------------------------------------------
    # Crash recovery (driven by the scheduler's restart path)
    # ------------------------------------------------------------------

    def begin_replay(self, cursor: "ReplayCursor") -> None:
        """Enter replay mode: sends and emits are suppressed (sends
        still counted, through the cursor, for highwater verification)."""
        self._replay = cursor

    def end_replay(self) -> None:
        self._replay = None

    @property
    def replaying(self) -> bool:
        return self._replay is not None

    @contextmanager
    def scope(self, name: str) -> Iterator[None]:
        """Attribute sends/events inside the block to protocol layer ``name``."""
        self._scope_stack.append(name)
        try:
            yield
        finally:
            self._scope_stack.pop()

    def swap_scope_stack(self, stack: list[str]) -> list[str]:
        """Swap in another scope stack, returning the previous one.

        Used by :func:`repro.runtime.concurrency.join` to keep the scope
        attribution of interleaved sub-protocols from contaminating each
        other: each branch's stack is saved when it yields and restored
        before it is resumed.
        """
        previous = self._scope_stack
        self._scope_stack = stack
        return previous

    # ------------------------------------------------------------------
    # Waiting helpers (sub-generators; use with ``yield from``)
    # ------------------------------------------------------------------

    def idle(self, ticks: int) -> Generator[int, None, list[Envelope]]:
        """Wait for the first tick, within the next ``ticks``, at which
        something is delivered, else for ``ticks`` ticks; return that
        tick's inbox.  Callers that need the full span loop on
        :attr:`now`, as :meth:`sleep` does."""
        yield self.now + ticks
        return self.inbox

    def sleep(self, ticks: int) -> Generator[int, None, list[Envelope]]:
        """Wait ``ticks`` ticks; return all envelopes delivered meanwhile."""
        collected: list[Envelope] = []
        deadline = self.now + ticks
        while (now := self.now) < deadline:
            collected.extend((yield from self.idle(deadline - now)))
        return collected

    def next_round(self) -> Generator[int, None, list[Envelope]]:
        """Advance one synchronous round (= one tick = one ``delta``)."""
        return (yield from self.idle(1))
