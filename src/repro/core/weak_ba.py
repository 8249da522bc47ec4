"""Adaptive weak Byzantine Agreement — the paper's Algorithms 3 and 4.

Resilience ``n = 2t + 1``, synchronous, ``O(n(f+1))`` words when
``f < (n-t-1)/2`` and ``O(n^2)`` otherwise (Section 6.1).

Structure (Algorithm 3):

1. **Phases** — ``num_phases`` rotating-leader phases (Algorithm 4).  A
   leader that has already decided keeps its phase *silent*; a
   non-silent phase costs ``O(n)`` words thanks to threshold
   signatures.  Within a phase the leader gathers either ``vote``
   shares on its proposal or an existing ``commit`` certificate, relays
   a ``commit`` certificate at the phase's level, collects ``decide``
   shares, and publishes a ``finalized`` certificate — all with the
   intersecting quorum ``⌈(n+t+1)/2⌉``.
2. **Help** — undecided processes broadcast signed ``help_req``;
   decided processes answer with their decision and its finalize
   certificate.  ``t + 1`` help requests batch into a fallback
   certificate (proof that ``f = Θ(t)``).
3. **Fallback** — a process receiving a fallback certificate echoes it
   once and, after a ``2δ`` safety window in which it adopts any proven
   decision as its fallback input, runs ``Afallback`` with round length
   ``δ' = 2δ`` (Lemmas 17/18).  The fallback's output is checked
   against the validity predicate; an invalid output means no unanimous
   valid value existed, and ``⊥`` is decided (unique validity).

Termination note (simulation vs. paper): the paper's processes never
halt, so a fallback certificate released arbitrarily late by the
adversary would still be served.  A simulation must terminate; after
the help rounds we keep listening for ``GRACE_TICKS`` extra ticks.  By
then every correct process has either decided or set its fallback
timer (see ``_help_and_fallback``), so the only certificates that can
arrive later are adversary-delayed ones addressed to processes that
have all already decided the *same* value — running the paper's
pointless unanimous fallback then would change nothing, and skipping
it is behaviorally equivalent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator

from repro.config import ProcessId, RunParameters, SystemConfig
from repro.core.validity import ExternalValidity, ValidityPredicate
from repro.core.values import BOTTOM, UNDECIDED
from repro.crypto.certificates import (
    CertificateCollector,
    QuorumCertificate,
    collect_by_value,
)
from repro.crypto.threshold import PartialSignature
from repro.fallback.recursive_ba import FALLBACK_ROUND_TICKS, fallback_ba
from repro.runtime.context import ProcessContext
from repro.runtime.pool import MessagePool
from repro.runtime.rounds import run_phases, run_rounds

GRACE_TICKS = 3
"""Extra listening ticks for late fallback certificates (see module doc)."""


# ----------------------------------------------------------------------
# Wire payloads (constant signatures/values each -> 1 word)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class WbaPropose:
    """Alg. 4 line 32: the leader's proposal for phase ``phase``."""

    session: str
    phase: int
    value: object

    def signatures(self) -> int:
        return 1  # the leader's own signature on the proposal


@dataclass(frozen=True)
class WbaVote:
    """Alg. 4 line 34: a share toward ``QC_commit(value)`` at this level."""

    session: str
    phase: int
    value: object
    partial: PartialSignature

    def signatures(self) -> int:
        return self.partial.signatures()


@dataclass(frozen=True)
class WbaCommitInfo:
    """Alg. 4 line 36: a previously committed value + proof + level."""

    session: str
    phase: int
    value: object
    proof: QuorumCertificate
    level: int

    def signatures(self) -> int:
        return self.proof.signatures()


@dataclass(frozen=True)
class WbaCommitCert:
    """Alg. 4 lines 39/42: the leader's relayed/formed commit certificate."""

    session: str
    phase: int
    value: object
    proof: QuorumCertificate
    level: int

    def signatures(self) -> int:
        return self.proof.signatures()


@dataclass(frozen=True)
class WbaDecideShare:
    """Alg. 4 line 44: a share toward ``QC_finalized(value)``."""

    session: str
    phase: int
    value: object
    partial: PartialSignature

    def signatures(self) -> int:
        return self.partial.signatures()


@dataclass(frozen=True)
class WbaFinalize:
    """Alg. 4 line 51: the finalize certificate — decisions follow it."""

    session: str
    phase: int
    value: object
    proof: QuorumCertificate

    def signatures(self) -> int:
        return self.proof.signatures()


@dataclass(frozen=True)
class WbaHelpReq:
    """Alg. 3 line 6: a signed help request (share of ``QC_fallback``)."""

    session: str
    partial: PartialSignature

    def signatures(self) -> int:
        return self.partial.signatures()


@dataclass(frozen=True)
class WbaHelp:
    """Alg. 3 line 8: a decided process's answer to a help request."""

    session: str
    value: object
    proof: QuorumCertificate
    proof_phase: int

    def signatures(self) -> int:
        return self.proof.signatures()


@dataclass(frozen=True)
class WbaFallbackCert:
    """Alg. 3 lines 11/22: the fallback certificate, echoed once, with
    the sender's decision (and proof) attached when it has one."""

    session: str
    certificate: QuorumCertificate
    value: object
    proof: QuorumCertificate | None
    proof_phase: int

    def signatures(self) -> int:
        total = self.certificate.signatures()
        if self.proof is not None:
            total += self.proof.signatures()
        return total


# ----------------------------------------------------------------------
# Certificate labels
# ----------------------------------------------------------------------


def commit_label(session: str) -> str:
    return f"wba-commit:{session}"


def finalize_label(session: str) -> str:
    return f"wba-fin:{session}"


def fallback_label(session: str) -> str:
    return f"wba-fb:{session}"


FALLBACK_STATEMENT = "start-fallback"


@dataclass
class _State:
    """Algorithm 3's process-local variables."""

    value: object  # v_i
    decision: object = UNDECIDED
    decide_proof: QuorumCertificate | None = None
    decide_phase: int = 0
    commit: object = None
    commit_proof: QuorumCertificate | None = None
    commit_level: int = 0
    bu_decision: object = None
    bu_proof: QuorumCertificate | None = None
    fallback_start: float = field(default=float("inf"))


class _Crypto:
    """Bundles the per-session labels and quorums for Algorithm 3/4."""

    def __init__(
        self, ctx: ProcessContext, session: str, commit_quorum: int | None
    ) -> None:
        self.ctx = ctx
        self.session = session
        self.config = ctx.config
        self.commit_quorum = (
            commit_quorum
            if commit_quorum is not None
            else ctx.config.commit_quorum
        )
        self.commit_label = commit_label(session)
        self.finalize_label = finalize_label(session)
        self.fallback_label = fallback_label(session)

    # -- statement payloads -------------------------------------------------
    def commit_statement(self, value: object, level: int) -> tuple:
        return ("commit", value, level)

    def finalize_statement(self, value: object, phase: int) -> tuple:
        return ("finalized", value, phase)

    # -- verification (verify_certificate rejects garbage, never raises) ----
    def valid_commit_proof(
        self, proof: object, value: object, level: int
    ) -> bool:
        return self.ctx.suite.verify_certificate(
            proof, self.commit_label, self.commit_quorum
        ) and proof.payload == self.commit_statement(value, level)

    def valid_finalize_proof(
        self, proof: object, value: object, phase: int
    ) -> bool:
        return self.ctx.suite.verify_certificate(
            proof, self.finalize_label, self.commit_quorum
        ) and proof.payload == self.finalize_statement(value, phase)

    def valid_fallback_cert(self, certificate: object) -> bool:
        return self.ctx.suite.verify_certificate(
            certificate, self.fallback_label, self.config.small_quorum
        ) and certificate.payload == FALLBACK_STATEMENT


def _phase_steps(
    ctx: ProcessContext,
    pool: MessagePool,
    crypto: _Crypto,
    state: _State,
    validity: ValidityPredicate,
) -> tuple[Callable[[int], None], ...]:
    """Algorithm 4 (``invokePhase``) as its six synchronous rounds, one
    ``step(phase)`` each, built once per protocol instance and run by
    :func:`~repro.runtime.rounds.run_phases`.  They update ``state`` in
    place: ``decision``/``decide_proof`` if a finalize certificate is
    observed, and the commit triple when a commit certificate of
    sufficient level is observed.  All but ``propose`` only react to
    pooled messages."""
    session = crypto.session
    leader_of = ctx.config.leader_of_phase

    def propose(phase: int) -> None:
        # Round 1 (lines 31-32): an undecided leader proposes its value.
        leader = leader_of(phase)
        if ctx.pid == leader and state.decision == UNDECIDED:
            ctx.emit("phase_non_silent", phase=phase, leader=leader)
            ctx.broadcast(
                WbaPropose(session=session, phase=phase, value=state.value)
            )

    def vote(phase: int) -> None:
        # Round 2 (lines 33-36): vote, or report an existing commitment.
        leader = leader_of(phase)
        proposals = [
            e
            for e in pool.take_payloads(WbaPropose, session=session, phase=phase)
            if e.sender == leader
        ]
        if not proposals:
            return
        value = proposals[0].payload.value  # "for the first time" (line 33)
        if state.commit is None and validity.validate(value):
            partial = ctx.suite.partial_for_certificate(
                ctx.pid,
                crypto.commit_label,
                crypto.commit_quorum,
                crypto.commit_statement(value, phase),
            )
            ctx.send(
                leader,
                WbaVote(session=session, phase=phase, value=value, partial=partial),
            )
        elif state.commit is not None:
            ctx.send(
                leader,
                WbaCommitInfo(
                    session=session,
                    phase=phase,
                    value=state.commit,
                    proof=state.commit_proof,
                    level=state.commit_level,
                ),
            )

    def relay_commit(phase: int) -> None:
        # Round 3 (lines 37-42): the leader relays a commit certificate.
        if ctx.pid != leader_of(phase):
            return
        best_info: WbaCommitInfo | None = None
        for envelope in pool.take_payloads(WbaCommitInfo, session=session, phase=phase):
            info = envelope.payload
            if not crypto.valid_commit_proof(info.proof, info.value, info.level):
                continue
            if best_info is None or info.level > best_info.level:
                best_info = info
        if best_info is not None:
            # Line 39: relay the maximal-level commitment heard.
            ctx.broadcast(
                WbaCommitCert(
                    session=session,
                    phase=phase,
                    value=best_info.value,
                    proof=best_info.proof,
                    level=best_info.level,
                )
            )
            return
        for vote_value, collector in _collect(
            ctx, pool, WbaVote, crypto, crypto.commit_label, phase,
            crypto.commit_statement,
        ).items():
            if collector.complete:
                # Lines 40-42: new commit certificate at level = phase.
                ctx.broadcast(
                    WbaCommitCert(
                        session=session,
                        phase=phase,
                        value=vote_value,
                        proof=collector.certificate(),
                        level=phase,
                    )
                )
                break

    def adopt_commit(phase: int) -> None:
        # Round 4 (lines 43-47): adopt the commit, send a decide share.
        leader = leader_of(phase)
        commit_certs = [
            e
            for e in pool.take_payloads(WbaCommitCert, session=session, phase=phase)
            if e.sender == leader
        ]
        for envelope in commit_certs[:1]:  # at most one per leader per phase
            cert = envelope.payload
            if not crypto.valid_commit_proof(cert.proof, cert.value, cert.level):
                continue
            if cert.level < state.commit_level:
                continue
            partial = ctx.suite.partial_for_certificate(
                ctx.pid,
                crypto.finalize_label,
                crypto.commit_quorum,
                crypto.finalize_statement(cert.value, phase),
            )
            ctx.send(
                leader,
                WbaDecideShare(
                    session=session, phase=phase, value=cert.value, partial=partial
                ),
            )
            state.commit = cert.value
            state.commit_proof = cert.proof
            state.commit_level = cert.level

    def finalize(phase: int) -> None:
        # Round 5 (lines 48-51): the leader publishes a finalize certificate.
        if ctx.pid != leader_of(phase):
            return
        for share_value, collector in _collect(
            ctx, pool, WbaDecideShare, crypto, crypto.finalize_label, phase,
            crypto.finalize_statement,
        ).items():
            if collector.complete:
                ctx.broadcast(
                    WbaFinalize(
                        session=session,
                        phase=phase,
                        value=share_value,
                        proof=collector.certificate(),
                    )
                )
                break

    def decide(phase: int) -> None:
        # Round 6 (lines 52-54): act on the finalize certificate.
        for envelope in pool.take_payloads(WbaFinalize, session=session, phase=phase):
            final = envelope.payload
            if not crypto.valid_finalize_proof(final.proof, final.value, phase):
                continue
            if state.decision == UNDECIDED:
                state.decision = final.value
                state.decide_proof = final.proof
                state.decide_phase = phase
                ctx.emit(
                    "wba_decided_in_phase", phase=phase, value=repr(final.value)
                )
            break

    return propose, vote, relay_commit, adopt_commit, finalize, decide


def _collect(
    ctx: ProcessContext,
    pool: MessagePool,
    payload_type: type,
    crypto: _Crypto,
    label: str,
    phase: int,
    statement: Callable[[object, int], tuple],
) -> dict[object, CertificateCollector]:
    """The leader's share collection (rounds 3 and 5): one collector per
    value among this phase's pooled ``payload_type`` shares."""
    shares = pool.take_payloads(payload_type, session=crypto.session, phase=phase)
    return collect_by_value(
        ctx.suite, label, crypto.commit_quorum,
        ((e.payload.value, e.payload.partial) for e in shares),
        lambda value: statement(value, phase),
    )


def _help_and_fallback(
    ctx: ProcessContext,
    pool: MessagePool,
    crypto: _Crypto,
    state: _State,
    validity: ValidityPredicate,
    session: str,
    echo_fallback_certificate: bool = True,
) -> Generator[None, None, None]:
    """Algorithm 3 lines 5-29: help rounds, fallback sync, ``Afallback``."""
    config = ctx.config

    # Round 1 (lines 5-6): undecided processes ask for help.
    if state.decision == UNDECIDED:
        partial = ctx.suite.partial_for_certificate(
            ctx.pid,
            crypto.fallback_label,
            config.small_quorum,
            FALLBACK_STATEMENT,
        )
        ctx.broadcast(WbaHelpReq(session=session, partial=partial))
        ctx.emit("help_req_sent")
    pool.extend((yield from ctx.next_round()))

    # Round 2 (lines 7-12): answer help requests; form fallback certs.
    requests = pool.take_payloads(WbaHelpReq, session=session)
    requesters: dict[ProcessId, WbaHelpReq] = {}
    for envelope in requests:
        requesters.setdefault(envelope.sender, envelope.payload)
    if state.decision != UNDECIDED:
        for requester in requesters:
            if requester != ctx.pid:
                ctx.send(
                    requester,
                    WbaHelp(
                        session=session,
                        value=state.decision,
                        proof=state.decide_proof,
                        proof_phase=state.decide_phase,
                    ),
                )
    collector = CertificateCollector(
        ctx.suite, crypto.fallback_label, config.small_quorum, FALLBACK_STATEMENT
    )
    for request in requesters.values():
        collector.add(request.partial)
    if collector.complete:
        certificate = collector.certificate()
        ctx.emit("fallback_cert_formed")
        ctx.broadcast(
            WbaFallbackCert(
                session=session,
                certificate=certificate,
                value=state.decision,
                proof=state.decide_proof,
                proof_phase=state.decide_phase,
            )
        )
        state.fallback_start = ctx.now + 2  # now + 2*delta (line 12)
    pool.extend((yield from ctx.next_round()))

    # Round 3 (lines 13-15): adopt helped decisions.
    for envelope in pool.take_payloads(WbaHelp, session=session):
        help_msg = envelope.payload
        if state.decision != UNDECIDED:
            break
        if validity.validate(help_msg.value) and crypto.valid_finalize_proof(
            help_msg.proof, help_msg.value, help_msg.proof_phase
        ):
            state.decision = help_msg.value
            state.decide_proof = help_msg.proof
            state.decide_phase = help_msg.proof_phase
            ctx.emit("wba_decided_by_help", value=repr(help_msg.value))
    if state.decision != UNDECIDED:
        state.bu_decision = state.decision  # line 15 (see module doc)
        state.bu_proof = state.decide_proof

    # Lines 16-23: the safety window.  Listen for fallback certificates,
    # echoing the first one; adopt any proven decision as the fallback
    # input.  Keep listening up to GRACE_TICKS past the help rounds.
    def listen(_round: int) -> int | None:
        for envelope in pool.take_payloads(WbaFallbackCert, session=session):
            fb = envelope.payload
            if not crypto.valid_fallback_cert(fb.certificate):
                continue
            if (
                state.decision == UNDECIDED
                and fb.proof is not None
                and validity.validate(fb.value)
                and crypto.valid_finalize_proof(fb.proof, fb.value, fb.proof_phase)
            ):
                state.bu_decision = fb.value  # lines 18-20
                state.bu_proof = fb.proof
            if state.fallback_start == float("inf"):
                # Lines 21-23: echo once, then start the safety window.
                # (The echo is the paper's synchronization device; it
                # can be ablated to measure what it buys — see
                # benchmarks/bench_ablation_fallback_sync.py.)
                if echo_fallback_certificate:
                    ctx.broadcast(
                        WbaFallbackCert(
                            session=session,
                            certificate=fb.certificate,
                            value=state.bu_decision
                            if state.bu_decision is not None
                            else state.decision,
                            proof=state.bu_proof,
                            proof_phase=state.decide_phase,
                        )
                    )
                state.fallback_start = ctx.now + 2
        if state.fallback_start != float("inf"):
            return state.fallback_start

    yield from run_rounds(
        ctx, pool, (listen,), min(state.fallback_start, ctx.now + GRACE_TICKS)
    )

    if state.fallback_start == float("inf"):
        return  # no fallback in this run (the common, adaptive case)

    # Lines 24-29: the fallback itself, with round length 2*delta.
    if state.bu_decision is None:
        state.bu_decision = state.value
    fallback_value = yield from fallback_ba(
        ctx,
        state.bu_decision,
        session=f"{session}/afb",
        round_ticks=FALLBACK_ROUND_TICKS,
        pool=pool,
    )
    if state.decision == UNDECIDED:
        if validity.validate(fallback_value):
            state.decision = fallback_value  # line 27
        else:
            state.decision = BOTTOM  # line 29
        ctx.emit("wba_decided_by_fallback", value=repr(state.decision))


def weak_ba_protocol(
    ctx: ProcessContext,
    initial_value: object,
    validity: ValidityPredicate,
    *,
    session: str = "wba",
    num_phases: int | None = None,
    commit_quorum: int | None = None,
    pool: MessagePool | None = None,
    echo_fallback_certificate: bool = True,
) -> Generator[None, None, object]:
    """Algorithm 3: weak BA with unique validity for ``validate``.

    Parameters
    ----------
    initial_value:
        The process's proposal ``v_i``; correct processes must propose
        *valid* values (the weak-BA precondition, Section 3).
    validity:
        The unique-validity predicate.
    num_phases:
        Number of rotating-leader phases; ``None`` means ``n`` (the
        prose/Lemma 6 reading — DESIGN.md fidelity note 1).  Pass
        ``config.t + 1`` for the pseudocode-literal variant.
    commit_quorum:
        Override for the ``⌈(n+t+1)/2⌉`` quorum — **ablation use only**
        (``benchmarks/bench_ablation_quorum.py``); the default is the
        paper's safe choice.
    pool:
        The caller's message pool, when weak BA runs as a sub-protocol
        (BB passes its own) — a message delivered one scheduling beat
        early on a real transport must not be stranded in the outer
        protocol's pool.
    """
    with ctx.scope("weak_ba"):
        config = ctx.config
        phases = num_phases if num_phases is not None else config.n
        crypto = _Crypto(ctx, session, commit_quorum)
        state = _State(value=initial_value, bu_decision=initial_value)
        if pool is None:
            pool = MessagePool()

        yield from run_phases(
            ctx, pool, _phase_steps(ctx, pool, crypto, state, validity), phases
        )

        yield from _help_and_fallback(
            ctx,
            pool,
            crypto,
            state,
            validity,
            session,
            echo_fallback_certificate=echo_fallback_certificate,
        )

        decision = state.decision if state.decision != UNDECIDED else BOTTOM
        ctx.emit("decided", value=repr(decision), session=session)
        return decision


def build(
    meta: dict,
    *,
    validity: ValidityPredicate | None = None,
    commit_quorum: int | None = None,
    echo_fallback_certificate: bool = True,
    **_code,
):
    """``meta -> factory(ctx)``, the table row's builder.

    The validity predicate is code and cannot live in a WAL; without
    one (offline replay) the process accepts everything.  If the live
    predicate ever rejected a value, the replayed send counts diverge
    from the highwater marks and replay refuses — a loud failure, not
    silently wrong state.  ``commit_quorum`` and
    ``echo_fallback_certificate`` are the mutation harness's knobs
    (:mod:`repro.mc.mutants`); their defaults are the paper's protocol.
    """
    return lambda ctx: weak_ba_protocol(
        ctx,
        meta.get("input"),
        validity or ExternalValidity(lambda value: True),
        session=meta.get("session", "wba"),
        num_phases=meta.get("num_phases"),
        commit_quorum=commit_quorum,
        echo_fallback_certificate=echo_fallback_certificate,
    )


def run_weak_ba(
    config: SystemConfig,
    inputs: dict[ProcessId, Any],
    validity_factory,
    *,
    seed: int = 0,
    byzantine: dict[ProcessId, Any] | None = None,
    params: RunParameters | None = None,
):
    """Standalone driver for weak BA over the simulator.

    ``validity_factory(suite, config)`` builds the shared predicate (it
    usually needs the deployment's crypto suite); ``inputs`` maps every
    correct pid to its (valid) proposal.
    """
    from repro.protocols.table import run_protocol

    metas = {pid: {"input": value} for pid, value in inputs.items()}
    return run_protocol(
        "weak_ba", config, metas, seed=seed, byzantine=byzantine,
        params=params, validity=validity_factory,
    )
