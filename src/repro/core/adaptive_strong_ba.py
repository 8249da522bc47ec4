"""Adaptive strong BA from weak BA by input certification.

**Extension beyond the paper's algorithms** (clearly marked as such):
the paper notes that instantiating weak BA's unique validity with the
predicate *"v is signed by at least t+1 processes stating that this
value was their initial value"* makes unique validity *"yield exactly
the common strong unanimity property on the underlying signed values"*
(Section 3).  Civit et al. (arXiv:2308.03524) build their adaptive
strong BA on the same idea, input certification.  This module is that
stack, written once; both backends' rows build it
(:mod:`repro.protocols.civit` passes ``t+1`` views, the cohen row one
per weak-BA phase):

1. **Certificate phases** (:func:`certification_phases`; rotating
   leaders, silent-phase discipline exactly like Algorithm 2): a leader
   that holds no input certificate asks for help; every process answers
   with its threshold share on ``("input", v_i)``; the leader combines
   any value's ``t+1`` shares into an input certificate and broadcasts
   it.
2. **Weak BA** (Algorithm 3, unmodified) over
   :class:`~repro.core.validity.CertifiedValue` wrappers under
   :class:`~repro.core.validity.CertifiedValidity`.
3. **Resolution**: the decision is the certified underlying value, or
   ``⊥``; the binary variant resolves ``⊥`` to :data:`RESOLUTION_VALUE`
   and so never outputs ``⊥``.

Guarantees (Definition 2): agreement and termination from weak BA;
**strong unanimity** because when all correct processes propose the
same ``v``, (a) the first correct leader's phase yields a certificate
for ``v`` (``n - f >= t + 1`` matching shares), and (b) no other value
can ever be certified (it would need a share from a correct process),
and every certificate for ``v`` is the same weak-BA value, so unique
validity forces it.  Hence ``⊥`` implies a mixed run, and in the
binary domain a mixed run means *both* bits were proposed by correct
processes: deciding the constant ``0`` is strong-valid and (being
deterministic) agreement-preserving.

Complexity: ``O(n(f+1))`` words in unanimous runs (the certificate
phases obey the silent-phase argument; the weak BA is adaptive).  In
*non-unanimous* runs no certificate may be combinable, every correct
leader probes, and the cost degrades to ``O(n^2)`` — matching the
fallback regime, never worse.  The paper's open question — fully
adaptive strong BA with a *non-trivial* outcome in every run — remains
open, and this module does not claim to close it (Elsheimy et al. [11]
later did).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator

from repro.config import ProcessId, RunParameters, SystemConfig
from repro.core.validity import (
    CertifiedValidity,
    CertifiedValue,
    input_label,
    input_statement,
)
from repro.core.values import BOTTOM
from repro.core.weak_ba import weak_ba_protocol
from repro.crypto.certificates import QuorumCertificate, collect_by_value
from repro.crypto.threshold import PartialSignature
from repro.errors import ConfigurationError
from repro.runtime.context import ProcessContext
from repro.runtime.pool import MessagePool
from repro.runtime.rounds import run_phases

CERT_PHASE_ROUNDS = 3
"""Ticks per certificate phase: request, shares, leader broadcast."""

BINARY_VALUES = (0, 1)

RESOLUTION_VALUE = 0
"""The binary variant's deterministic ⊥-resolution; only ever decided
in mixed runs, where both bits were proposed by correct processes."""


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


def certification_phases(
    ctx: ProcessContext,
    initial_value: object,
    *,
    session: str,
    phases: int,
    pool: MessagePool,
) -> Generator[None, None, CertifiedValue | None]:
    """Run ``phases`` certificate phases; returns the first valid input
    certificate this process adopted, or ``None``."""
    config = ctx.config
    suite = ctx.suite
    quorum = config.small_quorum
    label = input_label(session)
    validity = CertifiedValidity(suite, config, session)
    certified: CertifiedValue | None = None

    def ask(phase: int) -> None:
        if phase > 1:
            adopt(phase - 1)
        # Round 1: a certificate-less leader asks for input shares;
        # holders of a certificate keep their phase silent.
        leader = config.leader_of_phase(phase)
        if ctx.pid == leader and certified is None:
            ctx.emit("asba_phase_non_silent", phase=phase, leader=leader)
            ctx.broadcast(SbaCertRequest(session=session, phase=phase))

    def share(phase: int) -> None:
        # Round 2: everyone answers the leader with its own input share.
        leader = config.leader_of_phase(phase)
        if not any(
            e.sender == leader
            for e in pool.take_payloads(SbaCertRequest, session=session, phase=phase)
        ):
            return
        partial = suite.partial_for_certificate(
            ctx.pid, label, quorum, input_statement(initial_value)
        )
        ctx.send(
            leader,
            SbaInputShare(
                session=session, phase=phase, value=initial_value, partial=partial
            ),
        )

    def combine(phase: int) -> None:
        # Round 3: the leader combines any value's t+1 shares.
        if ctx.pid != config.leader_of_phase(phase) or certified is not None:
            return
        shares = pool.take_payloads(SbaInputShare, session=session, phase=phase)
        collectors = collect_by_value(
            suite, label, quorum,
            ((e.payload.value, e.payload.partial) for e in shares),
            input_statement,
        )
        for value, collector in collectors.items():
            if collector.complete:
                ctx.broadcast(
                    SbaInputCert(
                        session=session,
                        phase=phase,
                        value=value,
                        certificate=collector.certificate(),
                    )
                )
                break

    def adopt(phase: int) -> None:
        # A certificate is delivered the tick after round 3, which is
        # the next phase's round 1 (or the tick after the last phase).
        nonlocal certified
        if certified is not None:
            return
        for envelope in pool.take_payloads(SbaInputCert, session=session):
            offer = envelope.payload
            candidate = CertifiedValue(offer.value).with_certificate(offer.certificate)
            if validity.validate(candidate):
                certified = candidate
                ctx.emit("asba_certified", phase=phase)
                return

    # All but ``ask`` only react to pooled messages.
    yield from run_phases(ctx, pool, (ask, share, combine), phases)
    adopt(phases)
    return certified


def adaptive_strong_ba_protocol(
    ctx: ProcessContext,
    initial_value: object,
    *,
    session: str = "asba",
    binary: bool = False,
    num_views: int | None = None,
    num_phases: int | None = None,
    commit_quorum: int | None = None,
    echo_fallback_certificate: bool = True,
) -> Generator[None, None, object]:
    """Certificate phases, weak BA over certified values, resolution;
    returns the decision.

    ``num_views`` certificate phases (default: ``num_phases``) precede
    ``num_phases`` weak-BA phases (default ``n``).  ``binary=True``
    restricts inputs to :data:`BINARY_VALUES` and resolves ``⊥`` to
    :data:`RESOLUTION_VALUE`; otherwise ``⊥`` remains a permitted
    outcome, as in Definition 2.  ``commit_quorum`` and
    ``echo_fallback_certificate`` pass through to the weak-BA core —
    they exist for the mutation harness (``repro.mc.mutants``).
    """
    if binary and initial_value not in BINARY_VALUES:
        raise ConfigurationError(
            f"binary strong BA; got initial value {initial_value!r}"
        )
    with ctx.scope("adaptive_strong_ba"):
        phases = num_phases if num_phases is not None else ctx.config.n
        pool = MessagePool()
        certified = yield from certification_phases(
            ctx,
            initial_value,
            session=session,
            phases=num_views if num_views is not None else phases,
            pool=pool,
        )
        ba_decision = yield from weak_ba_protocol(
            ctx,
            certified,
            CertifiedValidity(ctx.suite, ctx.config, session),
            session=f"{session}/wba",
            num_phases=phases,
            commit_quorum=commit_quorum,
            pool=pool,
            echo_fallback_certificate=echo_fallback_certificate,
        )
        if isinstance(ba_decision, CertifiedValue):
            decision: object = ba_decision.value
        elif binary:
            decision = RESOLUTION_VALUE
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
