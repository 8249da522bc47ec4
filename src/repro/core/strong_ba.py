"""Strong binary BA, linear in the failure-free case — Algorithm 5.

Section 7: optimal resilience ``n = 2t + 1``, binary values, ``O(n)``
words when ``f = 0`` and ``O(n^2)`` otherwise.

Failure-free fast path (4 leader rounds, Lemma 8):

1. everyone sends its signed input to the fixed leader ``p_0``;
2. since values are binary, some value has ``t + 1`` signatures — the
   leader batches them into ``QC_propose(v)`` and broadcasts it;
3. everyone answers with a ``decide`` share;
4. the leader batches **all n** of them into ``QC_decide(v)`` and
   broadcasts; whoever receives it decides.

A process that does not decide broadcasts a ``fallback`` message;
fallback messages are echoed at most once, decisions (with their
``n``-of-``n`` proofs) are adopted during the ``2δ`` safety window, and
``Afallback`` runs with ``δ' = 2δ`` — exactly the machinery of
Section 6 (Lemmas 25-29 mirror Lemmas 17-19).

Agreement with only ``t+1``-quorum proposals is safe here because the
*decide* certificate requires all ``n`` signatures: correct processes
sign at most one decide message, so at most one ``QC_decide`` can ever
exist (Lemma 26), and its value is carried into the fallback by every
correct process (strong unanimity does the rest).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator

from repro.config import ProcessId, RunParameters, SystemConfig
from repro.core.values import BOTTOM
from repro.crypto.certificates import (
    CertificateCollector,
    CryptoSuite,
    QuorumCertificate,
    collect_by_value,
)
from repro.crypto.threshold import PartialSignature
from repro.errors import ConfigurationError
from repro.fallback.recursive_ba import FALLBACK_ROUND_TICKS, fallback_ba
from repro.runtime.context import ProcessContext
from repro.runtime.pool import MessagePool
from repro.runtime.rounds import run_rounds

GRACE_TICKS = 3
"""Post-fast-path listening window (same rationale as weak BA's)."""

BINARY_VALUES = (0, 1)


def propose_label(session: str) -> str:
    return f"sba-prop:{session}"


def decide_label(session: str) -> str:
    return f"sba-dec:{session}"


# ----------------------------------------------------------------------
# Wire payloads
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SbaInput:
    """Line 2: ``⟨v_i⟩_{p_i}`` — a share toward ``QC_propose(v_i)``."""

    session: str
    value: int
    partial: PartialSignature

    def signatures(self) -> int:
        return self.partial.signatures()


@dataclass(frozen=True)
class SbaPropose:
    """Line 6: the leader's ``t+1``-signed proposal certificate."""

    session: str
    value: int
    proof: QuorumCertificate

    def signatures(self) -> int:
        return self.proof.signatures()


@dataclass(frozen=True)
class SbaDecideShare:
    """Line 8: ``⟨decide, v⟩_{p_i}`` — a share toward ``QC_decide(v)``."""

    session: str
    value: int
    partial: PartialSignature

    def signatures(self) -> int:
        return self.partial.signatures()


@dataclass(frozen=True)
class SbaDecideCert:
    """Line 12: the ``n``-of-``n`` decide certificate."""

    session: str
    value: int
    proof: QuorumCertificate

    def signatures(self) -> int:
        return self.proof.signatures()


@dataclass(frozen=True)
class SbaFallback:
    """Lines 17/26: ``⟨fallback, v, proof⟩`` (``v``/``proof`` optional)."""

    session: str
    value: object
    proof: QuorumCertificate | None

    def signatures(self) -> int:
        return self.proof.signatures() if self.proof is not None else 1


def _collect(
    pool: MessagePool,
    payload_type: type,
    session: str,
    suite: CryptoSuite,
    label: str,
    k: int,
    statement: Callable[[int], tuple],
) -> dict[int, CertificateCollector]:
    """The leader's share collection (rounds 2 and 4): one collector per
    binary value, in value order, fed this session's pooled shares."""
    shares = pool.take_payloads(payload_type, session=session)
    return collect_by_value(
        suite, label, k,
        ((e.payload.value, e.payload.partial) for e in shares),
        statement, values=BINARY_VALUES,
    )


def strong_ba_protocol(
    ctx: ProcessContext,
    initial_value: int,
    *,
    session: str = "sba",
    leader: ProcessId = 0,
) -> Generator[None, None, object]:
    """Algorithm 5: binary strong BA; returns the decision (0 or 1)."""
    if initial_value not in BINARY_VALUES:
        raise ConfigurationError(
            f"strong BA is binary; got initial value {initial_value!r}"
        )
    with ctx.scope("strong_ba"):
        config = ctx.config
        suite = ctx.suite
        pool = MessagePool()
        is_leader = ctx.pid == leader

        decision: object = None
        proof: QuorumCertificate | None = None

        def propose_statement(v: int) -> tuple:
            return ("propose", v)

        def decide_statement(v: int) -> tuple:
            return ("decide", v)

        def valid_decide_cert(candidate: object, v: object) -> bool:
            return (
                v in BINARY_VALUES
                and suite.verify_certificate(
                    candidate, decide_label(session), config.full_quorum
                )
                and candidate.payload == decide_statement(v)
            )

        # Round 1 (line 2): send the signed input to the leader.
        ctx.send(
            leader,
            SbaInput(
                session=session,
                value=initial_value,
                partial=suite.partial_for_certificate(
                    ctx.pid,
                    propose_label(session),
                    config.small_quorum,
                    propose_statement(initial_value),
                ),
            ),
        )
        pool.extend((yield from ctx.next_round()))

        # Round 2 (lines 3-6): the leader proposes a t+1-backed value.
        if is_leader:
            for v, collector in _collect(
                pool, SbaInput, session, suite, propose_label(session),
                config.small_quorum, propose_statement,
            ).items():
                if collector.complete:
                    ctx.broadcast(
                        SbaPropose(
                            session=session, value=v, proof=collector.certificate()
                        )
                    )
                    break
        pool.extend((yield from ctx.next_round()))

        # Round 3 (lines 7-8): answer a valid proposal with a decide share.
        for envelope in pool.take_payloads(SbaPropose, session=session):
            if envelope.sender != leader:
                continue
            message = envelope.payload
            if (
                message.value in BINARY_VALUES
                and suite.verify_certificate(
                    message.proof, propose_label(session), config.small_quorum
                )
                and message.proof.payload == propose_statement(message.value)
            ):
                ctx.send(
                    leader,
                    SbaDecideShare(
                        session=session,
                        value=message.value,
                        partial=suite.partial_for_certificate(
                            ctx.pid,
                            decide_label(session),
                            config.full_quorum,
                            decide_statement(message.value),
                        ),
                    ),
                )
                break  # correct processes sign one decide message
        pool.extend((yield from ctx.next_round()))

        # Round 4 (lines 9-12): the leader publishes the n-of-n decision.
        if is_leader:
            for v, collector in _collect(
                pool, SbaDecideShare, session, suite, decide_label(session),
                config.full_quorum, decide_statement,
            ).items():
                if collector.complete:
                    ctx.broadcast(
                        SbaDecideCert(
                            session=session, value=v, proof=collector.certificate()
                        )
                    )
                    break
        pool.extend((yield from ctx.next_round()))

        # Round 5 (lines 13-18): decide, or raise the fallback alarm.
        fallback_start = float("inf")
        for envelope in pool.take_payloads(SbaDecideCert, session=session):
            message = envelope.payload
            if valid_decide_cert(message.proof, message.value):
                decision = message.value
                proof = message.proof
                ctx.emit("sba_decided_fast", value=message.value)
                break
        if decision is None:
            ctx.broadcast(SbaFallback(session=session, value=None, proof=None))
            fallback_start = ctx.now + 2  # line 18

        # Lines 19-27: safety window — adopt proven decisions, echo once.
        bu_decision: object = decision if decision is not None else initial_value
        bu_proof: QuorumCertificate | None = proof
        grace_deadline = ctx.now + GRACE_TICKS
        echoed = fallback_start != float("inf")

        def window_end() -> int:
            return grace_deadline if fallback_start == float("inf") else fallback_start

        def listen(_round: int) -> int:
            nonlocal bu_decision, bu_proof, echoed, fallback_start
            for envelope in pool.take_payloads(SbaFallback, session=session):
                message = envelope.payload
                if (
                    decision is None
                    and message.proof is not None
                    and valid_decide_cert(message.proof, message.value)
                ):
                    bu_decision = message.value  # lines 22-24
                    bu_proof = message.proof
                if not echoed:
                    # Lines 25-27: echo at most once.
                    ctx.broadcast(
                        SbaFallback(
                            session=session, value=bu_decision, proof=bu_proof
                        )
                    )
                    echoed = True
                    fallback_start = ctx.now + 2
            return window_end()

        # Listening starts one tick into the window and includes its
        # last tick, where a first fallback message reopens it.
        while ctx.now < window_end():
            pool.extend((yield from ctx.next_round()))
            yield from run_rounds(ctx, pool, (listen,), window_end())
            listen(0)

        if fallback_start == float("inf"):
            ctx.emit("decided", value=repr(decision), session=session)
            return decision  # failure-free path: no fallback ever raised

        # Line 28: the quadratic fallback with delta' = 2*delta.
        fallback_value = yield from fallback_ba(
            ctx,
            bu_decision,
            session=f"{session}/afb",
            round_ticks=FALLBACK_ROUND_TICKS,
            pool=pool,
        )
        if decision is None:
            decision = (
                fallback_value if fallback_value in BINARY_VALUES else BOTTOM
            )
        ctx.emit("decided", value=repr(decision), session=session)
        return decision


def build(meta: dict, **_code):
    """``meta -> factory(ctx)``, the table row's builder."""
    return lambda ctx: strong_ba_protocol(
        ctx,
        meta.get("input"),
        session=meta.get("session", "sba"),
        leader=meta.get("leader", 0),
    )


def tick_bound(config: SystemConfig) -> int:
    """Failure-free ticks: 4 leader rounds, the final delivery and the
    grace listening window."""
    return 4 + 1 + 4


def word_budget(config: SystemConfig, f: int) -> float:
    """Word envelope of a run with ``f`` silent faults: Lemma 8's four
    linear rounds when failure-free; otherwise the n-of-n decide
    certificate is unreachable and everyone runs the quadratic
    fallback."""
    return 8.0 * config.n if f == 0 else 90.0 * config.n * config.n


def run_strong_ba(
    config: SystemConfig,
    inputs: dict[ProcessId, int],
    *,
    seed: int = 0,
    byzantine: dict[ProcessId, Any] | None = None,
    params: RunParameters | None = None,
):
    """Standalone driver: run Algorithm 5 over the simulator."""
    from repro.protocols.table import run_protocol

    metas = {pid: {"input": value} for pid, value in inputs.items()}
    return run_protocol(
        "strong_ba", config, metas, seed=seed, byzantine=byzantine,
        params=params,
    )
