"""Adaptive Byzantine Broadcast — the paper's Algorithms 1 and 2.

``O(n(f+1))`` words, resilience ``n = 2t + 1``, built by reduction to
weak BA (Section 5):

1. **Dissemination** (Alg. 1 lines 1-4): the designated sender signs its
   value and broadcasts; receivers adopt ``⟨v⟩_sender`` as their weak-BA
   input.
2. **Vetting** (Alg. 1 lines 5-8, Alg. 2): ``num_phases``
   rotating-leader phases.  A leader *without* an input broadcasts a
   ``help_req``; processes answer with their sender-signed value or a
   signed ``idk``; the leader relays the sender-signed value, or an
   ``idk`` certificate batched from ``t + 1`` idk signatures.  After the
   first non-silent phase with a correct leader every correct process
   holds a valid input, so later correct leaders stay silent — the
   number of non-silent phases is ``O(f + 1)`` (Section 5.1).
3. **Agreement** (lines 9-13): weak BA under ``BB_valid`` (a value is
   valid iff sender-signed or ``t+1``-signed).  A sender-signed decision
   maps to the sender's raw value; anything else (the idk certificate)
   maps to ``⊥``.

Why the predicate works (Section 5): if the sender is *correct*, no
correct process ever says ``idk`` (everyone holds ``⟨v⟩_sender`` by the
first round), so no ``t+1``-signed value can exist (Lemma 10) and the
only valid value — hence the only possible weak-BA output — is the
sender's.  If the sender is Byzantine, every correct process still
enters the weak BA with *some* valid value (Lemma 11), so agreement on
a common output is guaranteed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator

from repro.config import ProcessId, RunParameters, SystemConfig
from repro.core.validity import IDK_LABEL, BroadcastValidity
from repro.core.values import BOTTOM
from repro.core.weak_ba import weak_ba_protocol
from repro.crypto.certificates import CertificateCollector, QuorumCertificate
from repro.crypto.signatures import SignedValue, sign_value
from repro.crypto.threshold import PartialSignature
from repro.runtime.context import ProcessContext
from repro.runtime.pool import MessagePool
from repro.runtime.rounds import run_phases

BB_PHASE_ROUNDS = 3
"""Ticks per vetting phase: help_req, replies, leader relay.  The
relayed value is delivered on the next phase's first tick and consumed
from the message pool there."""


def idk_statement(session: str) -> str:
    """The statement ``t+1`` processes threshold-sign to certify "no
    correct process holds the sender's value was withheld from us"."""
    return f"idk:{session}"


# ----------------------------------------------------------------------
# Wire payloads
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BbSenderValue:
    """Round 1 (Alg. 1 line 2): the sender-signed value ``⟨v⟩_sender``."""

    session: str
    signed: SignedValue

    def signatures(self) -> int:
        return self.signed.signatures()


@dataclass(frozen=True)
class BbHelpReq:
    """Alg. 2 line 16: a valueless leader asks for help."""

    session: str
    phase: int

    def signatures(self) -> int:
        return 1  # the leader signs its request


@dataclass(frozen=True)
class BbValueReply:
    """Alg. 2 line 19: ``⟨v_i, j⟩`` — the responder's current input."""

    session: str
    phase: int
    value: object  # SignedValue or idk QuorumCertificate

    def signatures(self) -> int:
        if isinstance(self.value, QuorumCertificate):
            return self.value.signatures()
        return 1


@dataclass(frozen=True)
class BbIdkReply:
    """Alg. 2 line 21: a signed ``idk`` (a share of ``QC_idk``)."""

    session: str
    phase: int
    partial: PartialSignature

    def signatures(self) -> int:
        return self.partial.signatures()


@dataclass(frozen=True)
class BbPhaseResult:
    """Alg. 2 lines 24/27: the leader's relayed value or idk certificate."""

    session: str
    phase: int
    value: object  # SignedValue or idk QuorumCertificate

    def signatures(self) -> int:
        if isinstance(self.value, QuorumCertificate):
            return self.value.signatures()
        return 1


@dataclass
class _Input:
    """The process's weak-BA input ``v_i`` while the vetting runs."""

    value: object = None  # SignedValue, idk QuorumCertificate, or None


def _vetting_steps(
    ctx: ProcessContext,
    pool: MessagePool,
    session: str,
    held: _Input,
    validity: BroadcastValidity,
) -> tuple[Callable[[int], None], ...]:
    """Algorithm 2 (``invokePhase``) as ``(ask, answer, relay, accept)``,
    one ``step(phase)`` per round.  ``accept`` — round 4 — shares its
    tick with the next phase's round 1, so ``ask`` runs it first and the
    caller runs it once more after the last phase.  All but ``ask`` only
    react to pooled messages."""
    config = ctx.config

    def ask(phase: int) -> None:
        if phase > 1:
            accept(phase - 1)
        # Round 1 (lines 15-16): a leader with no input asks for help.
        leader = config.leader_of_phase(phase)
        if ctx.pid == leader and held.value is None:
            ctx.emit("bb_phase_non_silent", phase=phase, leader=leader)
            ctx.broadcast(BbHelpReq(session=session, phase=phase))

    def answer(phase: int) -> None:
        # Round 2 (lines 17-21): answer the leader.
        leader = config.leader_of_phase(phase)
        if not any(
            e.sender == leader
            for e in pool.take_payloads(BbHelpReq, session=session, phase=phase)
        ):
            return
        if held.value is not None:
            ctx.send(
                leader,
                BbValueReply(session=session, phase=phase, value=held.value),
            )
        else:
            partial = ctx.suite.partial_for_certificate(
                ctx.pid,
                IDK_LABEL,
                config.small_quorum,
                idk_statement(session),
            )
            ctx.send(
                leader, BbIdkReply(session=session, phase=phase, partial=partial)
            )

    def relay(phase: int) -> None:
        # Round 3 (lines 22-27): the leader relays a valid value, or
        # batches t+1 idk signatures into QC_idk.
        if ctx.pid != config.leader_of_phase(phase) or held.value is not None:
            return
        relayed = None
        for envelope in pool.take_payloads(BbValueReply, session=session, phase=phase):
            reply = envelope.payload
            if validity.validate(reply.value):
                relayed = reply.value
                if (
                    isinstance(reply.value, SignedValue)
                    and reply.value.signer == validity.sender
                ):
                    break  # prefer a sender-signed value (line 23)
        if relayed is not None:
            ctx.broadcast(BbPhaseResult(session=session, phase=phase, value=relayed))
            return
        collector = CertificateCollector(
            ctx.suite,
            IDK_LABEL,
            config.small_quorum,
            idk_statement(session),
        )
        for envelope in pool.take_payloads(BbIdkReply, session=session, phase=phase):
            collector.add(envelope.payload.partial)
        if collector.complete:
            ctx.broadcast(
                BbPhaseResult(
                    session=session, phase=phase, value=collector.certificate()
                )
            )

    def accept(phase: int) -> None:
        # Round 4 (lines 28-31, line 8): adopt the leader's value if
        # BB_valid; otherwise keep the previous input.
        leader = config.leader_of_phase(phase)
        for envelope in pool.take_payloads(BbPhaseResult, session=session, phase=phase):
            if envelope.sender != leader:
                continue
            if validity.validate(envelope.payload.value):
                held.value = envelope.payload.value
            break

    return ask, answer, relay, accept


def byzantine_broadcast_protocol(
    ctx: ProcessContext,
    sender: ProcessId,
    value: object = None,
    *,
    session: str = "bb",
    num_phases: int | None = None,
    pool: MessagePool | None = None,
) -> Generator[None, None, object]:
    """Algorithm 1: adaptive BB; ``value`` is used only by the sender.

    Returns the broadcast decision: the sender's raw value, or ``⊥``
    (only possible when the sender is Byzantine).  ``pool`` lets a
    caller (e.g. the SMR app, chaining BB instances) share one message
    pool across instances so early-delivered messages are never
    stranded.
    """
    with ctx.scope("bb"):
        config = ctx.config
        phases = num_phases if num_phases is not None else config.n
        validity = BroadcastValidity(ctx.suite, config, sender)
        if pool is None:
            pool = MessagePool()

        # Round 1 (lines 1-4): dissemination.
        if ctx.pid == sender:
            ctx.broadcast(
                BbSenderValue(session=session, signed=sign_value(ctx.signer, value))
            )
        pool.extend((yield from ctx.next_round()))

        held = _Input()
        for envelope in pool.take_payloads(
            BbSenderValue, lambda e: e.sender == sender, session=session
        ):
            signed = envelope.payload.signed
            if validity.validate(signed):
                held.value = signed  # line 4: v_i <- ⟨v⟩_sender
                break

        # Lines 5-8: the vetting phases.
        *steps, accept = _vetting_steps(ctx, pool, session, held, validity)
        yield from run_phases(ctx, pool, steps, phases)
        accept(phases)

        # Line 9: the weak BA under BB_valid.
        ba_decision = yield from weak_ba_protocol(
            ctx,
            held.value,
            validity,
            session=f"{session}/wba",
            num_phases=phases,
            pool=pool,
        )

        # Lines 10-13: map the weak-BA output to the BB decision.
        if (
            isinstance(ba_decision, SignedValue)
            and ba_decision.signer == sender
            and ba_decision.verify(ctx.suite.registry)
        ):
            decision = ba_decision.payload
        else:
            decision = BOTTOM
        ctx.emit("decided", value=repr(decision), session=session)
        return decision


def build(meta: dict, **_code):
    """``meta -> factory(ctx)``, the table row's builder."""
    return lambda ctx: byzantine_broadcast_protocol(
        ctx,
        meta["sender"],
        meta.get("input"),
        session=meta.get("session", "bb"),
        num_phases=meta.get("num_phases"),
    )


def run_byzantine_broadcast(
    config: SystemConfig,
    sender: ProcessId,
    value: object,
    *,
    seed: int = 0,
    byzantine: dict[ProcessId, Any] | None = None,
    params: RunParameters | None = None,
):
    """Standalone driver: run adaptive BB over the simulator."""
    from repro.protocols.table import run_protocol

    meta = {"sender": sender, "input": value}
    return run_protocol(
        "bb", config, dict.fromkeys(config.processes, meta), seed=seed,
        byzantine=byzantine, params=params,
    )
