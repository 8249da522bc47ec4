"""Strong-unanimity BA from weak BA — Section 3's observation, realized.

**Extension beyond the paper's algorithms** (clearly marked as such):
the paper notes that instantiating weak BA's unique validity with the
predicate *"v is signed by at least t+1 processes stating that this
value was their initial value"* makes unique validity *"yield exactly
the common strong unanimity property on the underlying signed values"*
(Section 3).  This module turns that remark into a protocol:

1. **Certificate phases** (rotating leaders, silent-phase discipline
   exactly like Algorithm 2): a leader that holds no input certificate
   asks for help; every process answers with its threshold share on
   ``("input", v_i)``; the leader combines any value's ``t+1`` shares
   into an input certificate and broadcasts it.
2. **Weak BA** (Algorithm 3, unmodified) under
   :class:`~repro.core.validity.SignedInputsValidity`, proposing the
   certificate.
3. The decision is the certified underlying value, or ``⊥``.

Guarantees (Definition 2): agreement and termination from weak BA;
**strong unanimity** because when all correct processes propose the
same ``v``, (a) the first correct leader's phase yields a certificate
for ``v`` (``n - f >= t + 1`` matching shares), and (b) no other value
can ever be certified (it would need a share from a correct process),
so ``v``'s certificate is the run's *only* valid value and unique
validity forces it.

Complexity: ``O(n(f+1))`` words in unanimous runs (the certificate
phases obey the silent-phase argument; the weak BA is adaptive).  In
*non-unanimous* runs no certificate may be combinable, every correct
leader probes, and the cost degrades to ``O(n^2)`` — matching the
fallback regime, never worse.  The decision may then be ``⊥``, which
Definition 2 permits (strong unanimity only constrains unanimous
runs); the paper's open question — fully adaptive strong BA with a
*non-trivial* outcome in every run — remains open, and this module
does not claim to close it (Elsheimy et al. [11] later did).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator

from repro.config import ProcessId, RunParameters, SystemConfig
from repro.core.validity import INPUT_LABEL, SignedInputsValidity
from repro.core.values import BOTTOM
from repro.core.weak_ba import weak_ba_protocol
from repro.crypto.certificates import QuorumCertificate, collect_by_value
from repro.crypto.threshold import PartialSignature
from repro.runtime.context import ProcessContext
from repro.runtime.pool import MessagePool
from repro.runtime.rounds import run_phases

CERT_PHASE_ROUNDS = 3
"""Ticks per certificate phase: request, shares, leader broadcast."""


def input_statement(session: str, value: object) -> tuple:
    return ("input", value)


@dataclass(frozen=True)
class SbaCertRequest:
    """A certificate-less leader asks for input shares."""

    session: str
    phase: int

    def signatures(self) -> int:
        return 1  # the leader signs its request


@dataclass(frozen=True)
class SbaInputShare:
    """A process's share on its own input statement (plus the value)."""

    session: str
    phase: int
    value: object
    partial: PartialSignature

    def signatures(self) -> int:
        return self.partial.signatures()


@dataclass(frozen=True)
class SbaInputCert:
    """A combined input certificate: ``t+1`` processes claimed ``value``."""

    session: str
    phase: int
    value: object
    certificate: QuorumCertificate

    def signatures(self) -> int:
        return self.certificate.signatures()


def adaptive_strong_ba_protocol(
    ctx: ProcessContext,
    initial_value: object,
    *,
    session: str = "asba",
    num_phases: int | None = None,
) -> Generator[None, None, object]:
    """Run the extension protocol; returns the decision (a value or ⊥)."""
    with ctx.scope("adaptive_strong_ba"):
        config = ctx.config
        suite = ctx.suite
        phases = num_phases if num_phases is not None else config.n
        validity = SignedInputsValidity(suite, config)
        pool = MessagePool()
        quorum = config.small_quorum
        certificate: QuorumCertificate | None = None

        def ask(phase: int) -> None:
            if phase > 1:
                adopt(phase - 1)
            # Round 1: a certificate-less leader asks for input shares.
            leader = config.leader_of_phase(phase)
            if ctx.pid == leader and certificate is None:
                ctx.emit("asba_phase_non_silent", phase=phase, leader=leader)
                ctx.broadcast(SbaCertRequest(session=session, phase=phase))

        def share(phase: int) -> None:
            # Round 2: everyone answers with its own input share.
            leader = config.leader_of_phase(phase)
            if not any(
                e.sender == leader
                for e in pool.take_payloads(
                    SbaCertRequest, session=session, phase=phase
                )
            ):
                return
            partial = suite.partial_for_certificate(
                ctx.pid,
                INPUT_LABEL,
                quorum,
                input_statement(session, initial_value),
            )
            ctx.send(
                leader,
                SbaInputShare(
                    session=session,
                    phase=phase,
                    value=initial_value,
                    partial=partial,
                ),
            )

        def combine(phase: int) -> None:
            # Round 3: the leader combines and broadcasts a certificate.
            if ctx.pid != config.leader_of_phase(phase) or certificate is not None:
                return
            shares = pool.take_payloads(SbaInputShare, session=session, phase=phase)
            collectors = collect_by_value(
                suite, INPUT_LABEL, quorum,
                ((e.payload.value, e.payload.partial) for e in shares),
                lambda value: input_statement(session, value),
            )
            for share_value, collector in collectors.items():
                if collector.complete:
                    ctx.broadcast(
                        SbaInputCert(
                            session=session,
                            phase=phase,
                            value=share_value,
                            certificate=collector.certificate(),
                        )
                    )
                    break

        def adopt(phase: int) -> None:
            # Adopt any valid certificate seen (delivered the tick after
            # round 3, which is the next phase's round 1).
            nonlocal certificate
            if certificate is not None:
                return
            for envelope in pool.take_payloads(SbaInputCert, session=session):
                offer = envelope.payload
                if suite.verify_certificate(
                    offer.certificate, INPUT_LABEL, quorum
                ) and offer.certificate.payload == input_statement(
                    session, offer.value
                ):
                    certificate = offer.certificate
                    ctx.emit("asba_certified", phase=phase)
                    break

        # All but ``ask`` only react to pooled messages.
        yield from run_phases(ctx, pool, (ask, share, combine), phases)
        adopt(phases)

        # Weak BA over the certificates (Algorithm 3, unmodified).
        ba_decision = yield from weak_ba_protocol(
            ctx,
            certificate,
            validity,
            session=f"{session}/wba",
            num_phases=phases,
            pool=pool,
        )

        if (
            isinstance(ba_decision, QuorumCertificate)
            and validity.validate(ba_decision)
            and isinstance(ba_decision.payload, tuple)
            and len(ba_decision.payload) == 2
        ):
            decision = ba_decision.payload[1]
        else:
            decision = BOTTOM
        ctx.emit("decided", value=repr(decision), session=session)
        return decision


def build(meta: dict, **_code):
    """``meta -> factory(ctx)``, the table row's builder."""
    return lambda ctx: adaptive_strong_ba_protocol(
        ctx,
        meta.get("input"),
        session=meta.get("session", "asba"),
        num_phases=meta.get("num_phases"),
    )


def run_adaptive_strong_ba(
    config: SystemConfig,
    inputs: dict[ProcessId, Any],
    *,
    seed: int = 0,
    byzantine: dict[ProcessId, Any] | None = None,
    params: RunParameters | None = None,
):
    """Standalone driver for the extension protocol."""
    from repro.protocols.table import run_protocol

    metas = {pid: {"input": value} for pid, value in inputs.items()}
    return run_protocol(
        "adaptive_strong_ba", config, metas, seed=seed, byzantine=byzantine,
        params=params,
    )
