"""TCP transport: the protocols over real localhost sockets.

Each process runs an asyncio TCP server on ``127.0.0.1``; peers hold
one outgoing connection per neighbor and exchange length-prefixed
pickled envelopes.  The driver loop, the completion clock, the send
path and crash/rejoin are those of :mod:`repro.asyncnet.runner`; this
module supplies only the transport node (how a copy travels, what a
crash tears down).  A round ends when every copy due in it has landed —
the receive handler lands each frame after deduplication, loopback
lands directly — or has been written off: a send to a machine with no
connection or to a dead peer, frames still queued when a crashed
sender's connections close, frames from a dead incarnation (never a
frame that may have reached a socket).  The round timeout
``tick_duration`` (δ) must dominate localhost RTT + serialization, which
it does by orders of magnitude at the defaults; only a round closed by
timeout pays it.

Transport robustness
--------------------

* **Backpressure** — every peer has a dedicated writer coroutine that
  pulls frames off a bounded queue and ``await``s ``writer.drain()``
  after each write, so a slow receiver throttles the sender instead of
  growing the write buffer without bound.
* **Reconnect** — if a connection drops mid-run (peer restart, injected
  reset), the writer coroutine re-dials with capped exponential backoff
  (plus seeded per-peer jitter, so a healed partition does not trigger a
  lockstep thundering herd of re-dials)
  and re-sends the frame that failed; a peer that stays unreachable
  past the retry budget is treated as a crashed machine (sends to it
  evaporate), which is exactly how the protocols model dead hosts.
* **Lifecycle** — :func:`run_over_tcp` bounds the whole run with a
  timeout and tears everything down in a ``finally``: protocol tasks
  are cancelled and reaped, peer writers and accepted connections are
  closed *and awaited* (``wait_closed``), so repeated runs leak no
  sockets (the test suite turns ``ResourceWarning`` into an error).
* **Fault injection** — an optional seeded
  :class:`~repro.faults.plan.FaultPlan` drops / duplicates / delays
  messages at the sender, aborts chosen connections mid-run, and
  reorders per-round inboxes; decisions depend only on
  ``(seed, edge, tick, seq)``, so same-seed runs suffer identical
  faults despite real-socket timing.
* **Session resumption** — every outgoing link carries a session:
  the sender opens with ``("hello", pid, epoch)``, the receiver answers
  ``("ack", floor | None)``, and data flows as
  ``("msg", epoch, seq, envelope, to)`` frames.  The hello costs the sender
  *zero round trips*: data frames follow it immediately (the stream
  orders them behind it), the ack is consumed asynchronously, and only
  then is the unacked tail retransmitted.  The receiver deduplicates
  through a per-``(sender, epoch)`` receive window (contiguous ``floor``
  plus an out-of-order set), so the deferred retransmission can race
  fresh frames without double-delivering — and nothing ever double-bills
  (words are billed exactly once, at the protocol-level send).  A
  rejoining process re-announces itself with a *bumped epoch*: receivers
  reset their sequence state for the new incarnation, and an ``ack
  None`` (the receiver lost its session state, i.e. it restarted) makes
  the sender drop its retransmit buffer — frames in flight toward a
  crashed machine are lost, exactly as the tick scheduler models a down
  window.  Reconnects are *eager* (kicked off the moment the ack loop
  sees the transport die) so the dial usually happens off the send path.


Pickle is safe here because every endpoint is this same trusted test
process; a production deployment would swap in a real codec — the
protocols never see the difference, which is the point of the
demonstration.
"""

from __future__ import annotations

import asyncio
import pickle
import struct
from collections import deque
from typing import TYPE_CHECKING, Callable

from repro.asyncnet.runner import AsyncNetwork, admit, run_cluster
from repro.config import ProcessId, SystemConfig, derive_rng
from repro.faults import FaultPlan
from repro.obs.observer import Observer
from repro.runtime.envelope import Envelope
from repro.runtime.result import RunResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.recovery.manager import RecoveryManager

_HEADER = struct.Struct(">I")

RECONNECT_BASE = 0.01
"""First reconnect delay in seconds; doubles per attempt."""
RECONNECT_CAP = 0.25
"""Ceiling of the exponential backoff."""
RECONNECT_ATTEMPTS = 8
"""Dial attempts per frame before the peer is declared dead."""
SEND_QUEUE_LIMIT = 4096
"""Frames a peer may have queued; beyond it the sender fails loudly
(``asyncio.QueueFull``) instead of stalling or ballooning silently."""
UNACKED_LIMIT = 1024
"""Written-but-unacked frames a sender retains for retransmission; the
oldest are evicted past this (a receiver that far behind will reset the
session on reconnect anyway)."""
ACK_EVERY = 16
"""The receiver acks after this many delivered frames, bounding how much
retransmit buffer its senders must retain."""
_BACKOFF_TAG = 0xBAC0
"""Domain tag for the per-peer reconnect-jitter stream (see
:func:`repro.config.derive_rng`)."""
JITTER_SPREAD = (0.5, 1.5)
"""Each backoff sleep is scaled by a seeded uniform draw from this
range.  Without jitter every peer of a healed partition re-dials on the
same capped-exponential schedule — a thundering herd that the soak
fleet reliably turns into a second round of connection failures.  The
draw comes from a per-``(sender, peer)`` RNG derived from the run seed,
so same-seed runs still sleep identical schedules (trace reproducibility
is preserved); distinct peers de-synchronize."""


def _encode_frame(obj: object) -> bytes:
    body = pickle.dumps(obj)
    return _HEADER.pack(len(body)) + body


async def _read_frame(reader: asyncio.StreamReader) -> object:
    header = await reader.readexactly(_HEADER.size)
    (length,) = _HEADER.unpack(header)
    body = await reader.readexactly(length)
    return pickle.loads(body)


class _Peer:
    """One outgoing session: bounded queue, draining writer task,
    reconnect with capped exponential backoff, and sequence-numbered
    frames with retransmit-on-resume.

    Every data frame is ``("msg", epoch, seq, envelope, to)``, ``to``
    being the peer the frame is for; ``seq`` is
    assigned here, *below* the word ledger and the fault injector — so a
    retransmission is invisible to word accounting (billed once, at the
    protocol send) while an injector-ordered duplicate gets a fresh seq
    and is genuinely delivered twice.
    """

    def __init__(
        self,
        host: str,
        port: int,
        sender_pid: ProcessId,
        epoch: int,
        on_reconnect: Callable[[], None] | None = None,
        peer_pid: ProcessId = -1,
        seed: int = 0,
        on_lost: Callable[[object], None] | None = None,
    ) -> None:
        self.host = host
        self.port = port
        self.sender_pid = sender_pid
        self.peer_pid = peer_pid
        self._jitter_rng = derive_rng(
            seed, _BACKOFF_TAG ^ (sender_pid << 16) ^ (peer_pid & 0xFFFF)
        )
        self.epoch = epoch
        """The sender's incarnation number; bumped on process restart and
        re-announced in the hello so receivers reset sequence state."""
        self.queue: asyncio.Queue[tuple[int, bytes, object]] = asyncio.Queue(
            maxsize=SEND_QUEUE_LIMIT
        )
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None
        self.seq = 0
        self.unacked: deque[tuple[int, bytes]] = deque()
        """Written-but-unacked ``(seq, frame)`` pairs, oldest first —
        the retransmission source after a reconnect."""
        self._lose = on_lost or (lambda message: None)
        """Told each message this session will certainly never deliver
        (the network writes the copy off its round)."""
        self.retransmitted = 0
        """Frames re-sent after reconnects (not billed as new words)."""
        self.dropped_on_peer_restart = 0
        """Unacked frames abandoned because the receiver answered the
        hello with ``ack None`` — it restarted, the frames died with it."""
        self.dead = False
        """Set when the retry budget is exhausted: the host is gone, so
        further sends evaporate exactly like sends to a crashed machine."""
        self.reconnects = 0
        """Successful re-dials after a mid-run connection loss."""
        self._on_reconnect = on_reconnect
        self._pump_task: asyncio.Task | None = None
        self._ack_task: asyncio.Task | None = None
        self._reconnect_task: asyncio.Task | None = None
        self._retired_acks: list[asyncio.Task] = []
        """Ack loops cancelled by a re-announce (reconnect storm).  A
        cancelled-but-never-awaited task can outlive ``run_over_tcp``
        and leak its exception past the run, so :meth:`close` reaps
        these too."""
        self._conn_lock = asyncio.Lock()
        self._closing = False
        self._resync = False
        """Set by :meth:`_announce`; the first ack on the new connection
        triggers retransmission of the surviving unacked tail."""

    async def connect(self) -> None:
        """Dial the peer (with backoff), announce the session, and
        start the writer coroutine."""
        await self._dial()
        self._announce()
        self._pump_task = asyncio.create_task(self._pump())

    def send(self, obj: object) -> None:
        """Queue one message for transmission (non-blocking).

        Raises :class:`asyncio.QueueFull` if the peer is so far behind
        that :data:`SEND_QUEUE_LIMIT` frames are already pending.
        """
        if self.dead:
            self._lose(obj)
            return
        seq = self.seq
        self.seq += 1
        self.queue.put_nowait(
            (seq, _encode_frame(("msg", self.epoch, seq, obj, self.peer_pid)), obj)
        )

    def _lose_queued(self) -> None:
        while not self.queue.empty():
            self._lose(self.queue.get_nowait()[2])

    def inject_reset(self) -> None:
        """Fault hook: abort the underlying transport mid-run, as if the
        connection were reset by the network."""
        if self.writer is not None:
            self.writer.transport.abort()

    async def close(self) -> None:
        self._closing = True
        tasks = [self._pump_task, self._ack_task, self._reconnect_task]
        tasks.extend(self._retired_acks)
        for task in tasks:
            if task is not None:
                task.cancel()
        live = [t for t in tasks if t is not None]
        if live:
            await asyncio.gather(*live, return_exceptions=True)
        self._pump_task = None
        self._ack_task = None
        self._reconnect_task = None
        self._retired_acks = []
        self._lose_queued()  # never written: they die with the sender
        await self._discard_writer()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    async def _dial(self) -> None:
        """Open the connection, retrying with capped exponential backoff
        plus seeded per-peer jitter (:data:`JITTER_SPREAD`)."""
        low, high = JITTER_SPREAD
        delay = RECONNECT_BASE
        for attempt in range(RECONNECT_ATTEMPTS):
            try:
                self.reader, self.writer = await asyncio.open_connection(
                    self.host, self.port
                )
                return
            except OSError:
                if attempt == RECONNECT_ATTEMPTS - 1:
                    break
                await asyncio.sleep(delay * self._jitter_rng.uniform(low, high))
                delay = min(delay * 2, RECONNECT_CAP)
        self.dead = True
        raise ConnectionError(f"peer {self.host}:{self.port} unreachable")

    def _announce(self) -> None:
        """Open (or resume) the session on a fresh connection: write the
        hello and keep going — the ack is consumed *asynchronously* by
        :meth:`_ack_loop`, so resumption costs the sender zero round
        trips.  Data frames may flow immediately because the hello is
        ordered ahead of them on the same stream, and the receiver's
        out-of-order dedup window makes the deferred retransmission
        (triggered when the ack eventually arrives) safe.
        """
        self.writer.write(
            _encode_frame(("hello", self.sender_pid, self.epoch))
        )
        self._resync = True
        if self._ack_task is not None:
            self._ack_task.cancel()
            # Can't await here (sync method): park it for close() to
            # reap, pruning the already-finished ones so a reset storm
            # doesn't grow the list without bound.
            self._retired_acks = [
                t for t in self._retired_acks if not t.done()
            ]
            self._retired_acks.append(self._ack_task)
        self._ack_task = asyncio.create_task(self._ack_loop(self.reader))

    async def _ack_loop(self, reader: asyncio.StreamReader) -> None:
        """Consume in-band acks from the receiver.

        ``ack floor`` (an int, cumulative) prunes the retransmit buffer;
        the first ack after an announce additionally retransmits the
        surviving tail — written-but-lost frames from before the
        reconnect (the receiver's dedup window absorbs any that did make
        it).  ``ack None`` means the receiver had no session state —
        first contact, or it restarted and its table died with it; in
        the restart case the unacked frames were headed for a down
        machine, so they are dropped rather than resurrected.  None is
        written off: the old connection's handler may have landed any
        of them before the reset.

        When the connection dies this loop discards the dead writer and
        starts an eager background reconnect, so by the next send the
        link is usually live again instead of paying the dial inside a
        delivery round.
        """
        try:
            while True:
                frame = await _read_frame(reader)
                if not (
                    isinstance(frame, tuple) and frame and frame[0] == "ack"
                ):
                    continue
                ack = frame[1]
                if ack is None:
                    self.dropped_on_peer_restart += len(self.unacked)
                    self.unacked.clear()
                    self._resync = False
                elif isinstance(ack, int):
                    while self.unacked and self.unacked[0][0] <= ack:
                        self.unacked.popleft()
                    if self._resync:
                        self._resync = False
                        writer = self.writer
                        if writer is not None and self.unacked:
                            for _, raw in self.unacked:
                                writer.write(raw)
                                self.retransmitted += 1
                            await writer.drain()
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            if self._closing or self.dead:
                return
            await self._discard_writer()
            if self._reconnect_task is None or self._reconnect_task.done():
                self._reconnect_task = asyncio.create_task(
                    self._eager_reconnect()
                )

    async def _eager_reconnect(self) -> None:
        """Re-establish the session off the send path after a transport
        failure; on any error, leave the link down for the pump's
        full retry/backoff path to handle at the next send."""
        try:
            await self._ensure_connected()
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            await self._discard_writer()

    async def _ensure_connected(self) -> None:
        """Dial + announce if the link is down, serialized against the
        pump so the two paths cannot open duplicate connections."""
        async with self._conn_lock:
            if self.writer is not None or self.dead or self._closing:
                return
            await self._dial()
            self._announce()
            self.reconnects += 1
            if self._on_reconnect is not None:
                self._on_reconnect()

    async def _discard_writer(self) -> None:
        writer, self.writer = self.writer, None
        self.reader = None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _pump(self) -> None:
        """Writer coroutine: drain-backed sends, reconnect on failure.

        Each frame is written then ``drain``-ed, so the peer's receive
        rate backpressures this sender.  A send that fails because the
        connection dropped triggers a re-dial, a session handshake (which
        retransmits everything written-but-unacked), and then the *same
        frame* — a reset must not lose correct-process messages (that
        would be a drop fault, which only a :class:`FaultPlan` may
        introduce deliberately).
        """
        while True:
            seq, frame, obj = await self.queue.get()
            written = False
            while not self.dead:
                writer = None
                try:
                    if self.writer is None:
                        await self._ensure_connected()
                    writer = self.writer
                    if writer is None:
                        if self._closing:
                            return
                        continue
                    writer.write(frame)
                    written = True
                    await writer.drain()
                    self.unacked.append((seq, frame))
                    if len(self.unacked) > UNACKED_LIMIT:
                        self.unacked.popleft()
                    break
                except (ConnectionError, OSError):
                    # Only tear down the writer this attempt used: the
                    # eager-reconnect path may already have replaced it
                    # with a live session.
                    if writer is not None and self.writer is writer:
                        await self._discard_writer()
            if self.dead:
                # A frame that reached a socket may still have landed.
                if not written:
                    self._lose(obj)
                self._lose_queued()
                return


class TcpProcessNode:
    """One process: a TCP server plus outgoing connections to peers."""

    def __init__(
        self, network: AsyncNetwork, pid: ProcessId, host: str = "127.0.0.1"
    ) -> None:
        self.network = network
        self.pid = pid
        self.host = host
        self.port: int | None = None
        self.server: asyncio.AbstractServer | None = None
        self.peers: dict[ProcessId, _Peer] = {}
        self.queue = network.queue_for(pid)
        self.epoch = 0
        """This process's incarnation; bumped on crash so peers can tell
        a restarted sender from a resumed connection."""
        self.sessions: dict[ProcessId, list] = {}
        """Receive-side dedup state, ``sender -> [epoch, floor, above]``
        (the receive window of :meth:`_handle_connection`) — process
        memory, cleared when this process crashes."""
        self.ports: dict[ProcessId, int] = {}
        self._handlers: set[asyncio.Task] = set()

    async def start_server(self) -> int:
        self.server = await asyncio.start_server(
            self._handle_connection, self.host, 0
        )
        self.port = self.server.sockets[0].getsockname()[1]
        return self.port

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
        obs = self.network.observer
        # [epoch, floor, above]: ``floor`` is the highest contiguously
        # delivered seq, ``above`` the out-of-order seqs beyond it —
        # a receive window, so a deferred retransmission arriving after
        # newer frames is still recognized as a duplicate-or-gap-fill.
        session: list | None = None
        since_ack = 0
        try:
            while True:
                frame = await _read_frame(reader)
                if not isinstance(frame, tuple) or not frame:
                    continue
                if frame[0] == "hello":
                    _, sender, epoch = frame
                    session = self.sessions.get(sender)
                    if session is not None and session[0] == epoch:
                        # Same incarnation resuming: tell it how far we
                        # got so it retransmits only the gap.
                        writer.write(_encode_frame(("ack", session[1])))
                    else:
                        # New incarnation (or no state — first contact,
                        # or we restarted and lost the table): fresh
                        # session, and the None tells the sender its
                        # in-flight frames are unrecoverable.
                        session = self.sessions[sender] = [epoch, -1, set()]
                        writer.write(_encode_frame(("ack", None)))
                    since_ack = 0
                elif frame[0] == "msg":
                    _, epoch, seq, envelope, to = frame
                    if not (isinstance(envelope, Envelope) and to == self.pid):
                        continue
                    if session is None or session[0] != epoch:
                        # A frame from a dead incarnation never lands.
                        self.network.write_off(envelope)
                        continue
                    if seq <= session[1] or seq in session[2]:
                        # Retransmission of a frame that already made it
                        # before the reconnect: deliver once, bill never.
                        if obs is not None:
                            obs.on_transport("deduplicated")
                        continue
                    session[2].add(seq)
                    while session[1] + 1 in session[2]:
                        session[1] += 1
                        session[2].remove(session[1])
                    self.network.land(to, envelope)
                    since_ack += 1
                    if since_ack >= ACK_EVERY:
                        # No drain: acks are tiny and must not stall
                        # the delivery loop behind reverse-path flushes.
                        writer.write(_encode_frame(("ack", session[1])))
                        since_ack = 0
        except (asyncio.IncompleteReadError, ConnectionResetError):
            pass  # peer closed (EOF) or reset: either way this link is done
        finally:
            if task is not None:
                self._handlers.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def connect_peers(self, ports: dict[ProcessId, int]) -> None:
        self.ports = dict(ports)
        for peer_pid, port in ports.items():
            if peer_pid == self.pid:
                continue
            peer = _Peer(
                self.host,
                port,
                self.pid,
                self.epoch,
                on_reconnect=self._reconnect_recorder(peer_pid),
                peer_pid=peer_pid,
                seed=self.network.seed,
                on_lost=self.network.write_off,
            )
            await peer.connect()
            self.peers[peer_pid] = peer

    async def crash(self) -> None:
        """Lose all process state: outgoing sessions (their retransmit
        buffers die), the receive-side dedup table, and the queued inbox.
        The server socket stays up — the *machine* is reachable, the
        process is what restarts — so peers keep a live link and their
        next hello meets an empty session table."""
        peers, self.peers = dict(self.peers), {}
        for peer in peers.values():
            await peer.close()
        self.sessions.clear()
        self.epoch += 1
        while not self.queue.empty():
            self.queue.get_nowait()

    async def rejoin(self) -> None:
        """Re-dial every peer, announcing the bumped epoch."""
        await self.connect_peers(self.ports)

    def _reconnect_recorder(self, peer_pid: ProcessId) -> Callable[[], None]:
        def record() -> None:
            self.network.trace.emit(
                tick=-1,  # transport events sit outside the round clock
                pid=self.pid,
                scope="transport",
                name="reconnected",
                peer=peer_pid,
            )

        return record

    def transmit(self, to: ProcessId, envelope: Envelope) -> None:
        """Put one billed send to ``to`` on the wire (the network's send
        path calls this for senders that have a node)."""
        injector = self.network.injector
        peer = self.peers.get(to)
        # Connection faults first: an injected reset fires on the next
        # send over its edge, so the frame below exercises reconnect.
        if (
            injector is not None
            and peer is not None
            and injector.take_reset(self.pid, to, envelope.sent_at)
        ):
            peer.inject_reset()
            if self.network.observer is not None:
                self.network.observer.on_fault("reset")
        self.network.wire(to, envelope, self._dispatch)

    def _dispatch(self, to: ProcessId, envelope: Envelope) -> None:
        if to == self.pid:
            self.network.land(to, envelope)  # loopback without a socket
            return
        peer = self.peers.get(to)
        if peer is not None:
            peer.send(envelope)
        else:
            # No connection = a crashed machine: the send evaporates,
            # which is exactly how the network treats a dead host.
            self.network.write_off(envelope)

    async def close_outgoing(self) -> None:
        """Phase 1 of shutdown: close this node's outgoing connections
        (writer tasks cancelled, writers awaited closed).  The EOFs this
        produces let the *peers'* accepted-connection handlers finish on
        their own."""
        for peer in self.peers.values():
            await peer.close()

    async def close_incoming(self) -> None:
        """Phase 2 of shutdown: stop listening and reap accepted
        connections.  Call it only after *every* node of the cluster ran
        :meth:`close_outgoing`: our handlers have then all seen EOF —
        await them; cancellation is only a last resort for connections
        that never died (it trips a noisy ``asyncio.streams`` callback
        on 3.11, so avoid it on the normal path)."""
        if self.server is not None:
            self.server.close()
            await self.server.wait_closed()
        if self._handlers:
            handlers = list(self._handlers)
            _, still_open = await asyncio.wait(handlers, timeout=1.0)
            for handler in still_open:
                handler.cancel()
            if still_open:
                await asyncio.gather(*still_open, return_exceptions=True)


async def run_over_tcp(
    config: SystemConfig,
    factories: dict[ProcessId, Callable],
    *,
    seed: int = 0,
    tick_duration: float = 0.05,
    crashed: frozenset[ProcessId] = frozenset(),
    fault_plan: FaultPlan | None = None,
    timeout: float | None = 120.0,
    observer: "Observer | None" = None,
    recovery: "RecoveryManager | None" = None,
) -> RunResult:
    """Run one protocol instance over localhost TCP sockets.

    ``tick_duration`` is the round timeout δ: a round ends as soon as
    every process has parked and every frame due in it has landed (or
    can never land), and only a round closed by timeout lasts δ.
    ``crashed`` processes get no node at all — their peers simply never
    hear from them, exactly like a crashed machine.  ``fault_plan``
    injects deterministic message and connection faults (see
    :mod:`repro.faults`); delays must stay below the synchrony bound.
    ``recovery`` gives every process a write-ahead log and is required
    when the plan schedules crash/restart faults: the crashed node loses
    its process state (outgoing sessions, dedup table, queued inbox),
    stays silent for the down window, then replays its WAL and re-dials
    its peers under a bumped epoch.  ``timeout`` bounds the whole run in
    seconds (``None`` disables it); on expiry every task is cancelled,
    every socket is closed, and
    :class:`~repro.errors.TerminationViolation` is raised.
    """
    loop = asyncio.get_running_loop()
    started = loop.time()
    network = AsyncNetwork(
        config, seed=seed, tick_duration=tick_duration, fault_plan=fault_plan,
        observer=observer, recovery=recovery,
    )
    admit(network, factories, set(crashed))
    nodes = network.nodes = {  # these processes' sends go by socket
        pid: TcpProcessNode(network, pid)
        for pid in config.processes
        if pid not in crashed
    }
    try:
        ports = {pid: await node.start_server() for pid, node in nodes.items()}
        for node in nodes.values():
            await node.connect_peers(ports)
        outcomes = await run_cluster(network, factories, {}, timeout)
    finally:
        # Guaranteed teardown on every path: success, protocol error,
        # timeout, or cancellation of this coroutine itself
        # (run_cluster has already reaped its tasks, timers and WALs).
        for node in nodes.values():
            await node.close_outgoing()
        for node in nodes.values():
            await node.close_incoming()
    return network.result(outcomes, loop.time() - started)
