"""Civit-style adaptive strong BA: certified inputs + the adaptive core.

Reproduction of the *STRONG paradigm* of Civit, Gilbert, Guerraoui,
Komatovic & Vidigueira, "Strong Byzantine Agreement with Adaptive Word
Complexity" (arXiv:2308.03524): strong validity is reduced to **input
certification** — a ``t+1``-threshold certificate on ``("civit-input",
v)`` proves at least one *correct* process proposed ``v`` — and
agreement/termination are delegated to an adaptive agreement core run
over the certified values.  This package instantiates that paradigm on
the repo's substrates:

1. **Certification views** (``t + 1`` views, rotating certifiers with
   the same silent-view discipline as Algorithm 2): a certifier holding
   no input certificate solicits; every process answers with its
   threshold share on its *own* input; the certifier combines any
   value's ``t + 1`` shares and broadcasts the certificate.  A view
   whose certifier already holds a certificate is **silent** — the
   adaptivity argument for this layer is the paper's own silent-phase
   accounting.
2. **The shared adaptive weak BA** (Algorithm 3 of Cohen–Keidar–
   Spiegelman, reused verbatim from :mod:`repro.core.weak_ba` — the
   substrate both papers build on) run over :class:`CertifiedValue`
   wrappers under :class:`CertifiedValidity`.
3. **Resolution**: the decision is the certified underlying value.  The
   *binary* strong BA (:func:`civit_strong_ba_protocol`) additionally
   resolves a ``⊥`` outcome to ``RESOLUTION_VALUE`` — see below for why
   that preserves strong validity — so it **never outputs ⊥**, unlike
   Algorithm 5's fallback path or the Section-3 extension.

Why the ``⊥ -> 0`` resolution is safe (binary domain, ``n = 2t + 1``):

* If all correct processes propose the same ``v``, no certificate for
  ``1 - v`` can ever exist (it would need a correct share), while
  ``n - f >= t + 1`` matching shares make ``v`` certifiable and the
  first correct certifier publishes it.  :class:`CertifiedValue`
  compares by the *underlying value only*, so however many certificate
  objects the adversary mints for ``v``, weak BA sees exactly one valid
  value and unique validity forces it — ``⊥`` is unreachable in
  unanimous runs.
* ``⊥`` therefore implies the run was mixed, i.e. *both* binary values
  were proposed by correct processes, and deciding the constant ``0``
  is strong-valid and (being deterministic) agreement-preserving.

Complexity: with ``f`` silent faults and unanimous (or ``t+1``-popular)
inputs, at most one correct certification view is non-silent and the
weak BA core is adaptive, so the bill is ``O(n(f+1))`` whenever ``f``
is below the fallback threshold ``(n-t-1)/2`` — in particular it stays
*linear* at ``f = 1``, where Algorithm 5's ``n``-of-``n`` decide
certificate is already unreachable and its bill jumps to ``O(n^2)``.
That differential is the content of
``benchmarks/results/backend_adaptivity.json``.  In mixed runs where no
value reaches ``t + 1`` correct shares, every correct certifier probes
and the certification layer degrades to ``O(n^2)`` — the same regime as
the Section-3 extension, and an honest fidelity gap against the exact
STRONG protocol (whose pseudocode this module does not transcribe; see
``docs/backends.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from repro.config import SystemConfig
from repro.core.validity import ValidityPredicate
from repro.core.values import BOTTOM
from repro.core.weak_ba import weak_ba_protocol
from repro.crypto.certificates import (
    CryptoSuite,
    QuorumCertificate,
    collect_by_value,
)
from repro.crypto.threshold import PartialSignature
from repro.errors import ConfigurationError
from repro.runtime.context import ProcessContext
from repro.runtime.pool import MessagePool
from repro.runtime.rounds import run_phases

VIEW_ROUNDS = 3
"""Ticks per certification view: solicit, shares, certificate."""

BINARY_VALUES = (0, 1)

RESOLUTION_VALUE = 0
"""The deterministic ⊥-resolution of the binary strong BA.  Only ever
decided in mixed runs (see the module docstring), where both binary
values were proposed by correct processes."""


def input_label(session: str) -> str:
    return f"civit-inp:{session}"


def input_statement(value: object) -> tuple:
    return ("civit-input", value)


@dataclass(frozen=True)
class CertifiedValue:
    """A value together with its input certificate.

    Equality, hashing, and — crucially — the canonical signing encoding
    cover the *underlying value only*: the certificate rides along as a
    non-field attribute.  Two certificates for the same value minted
    from different share subsets therefore collapse into one weak-BA
    value, which is what makes unique validity force the unanimous
    value (no adversarial ``⊥`` via certificate multiplicity).
    """

    value: object

    def with_certificate(self, certificate: QuorumCertificate) -> "CertifiedValue":
        object.__setattr__(self, "_certificate", certificate)
        return self

    @property
    def certificate(self) -> QuorumCertificate | None:
        return getattr(self, "_certificate", None)

    def words(self) -> int:
        # One word for the value, one for the threshold certificate.
        return 2

    def __repr__(self) -> str:
        return f"Certified({self.value!r})"


class CertifiedValidity(ValidityPredicate):
    """Valid iff the attached input certificate proves ``t+1`` processes
    — hence at least one correct one — claimed the wrapped value as
    their input."""

    def __init__(self, suite: CryptoSuite, config: SystemConfig, session: str):
        self._suite = suite
        self._quorum = config.small_quorum
        self._label = input_label(session)

    def validate(self, value: object) -> bool:
        if not isinstance(value, CertifiedValue):
            return False
        certificate = value.certificate
        return self._suite.verify_certificate(
            certificate, self._label, self._quorum
        ) and certificate.payload == input_statement(value.value)


# ----------------------------------------------------------------------
# Wire payloads of the certification views
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CivitSolicit:
    """A certificate-less view certifier asks for input shares."""

    session: str
    view: int

    def signatures(self) -> int:
        return 1  # the certifier signs its solicitation


@dataclass(frozen=True)
class CivitInputShare:
    """A process's threshold share on its *own* input statement."""

    session: str
    view: int
    value: object
    partial: PartialSignature

    def signatures(self) -> int:
        return self.partial.signatures()


@dataclass(frozen=True)
class CivitInputCert:
    """A combined input certificate, broadcast by the view certifier."""

    session: str
    view: int
    value: object
    certificate: QuorumCertificate

    def signatures(self) -> int:
        return self.certificate.signatures()


def certification_views(
    ctx: ProcessContext,
    initial_value: object,
    *,
    session: str,
    num_views: int,
    pool: MessagePool,
) -> Generator[None, None, CertifiedValue | None]:
    """Run the certification layer; returns this process's certified
    value (its own input, or the first valid certificate adopted) or
    ``None`` when no certificate was observed."""
    config = ctx.config
    suite = ctx.suite
    quorum = config.small_quorum
    label = input_label(session)
    validity = CertifiedValidity(suite, config, session)
    certified: CertifiedValue | None = None

    def adopt(view: int) -> None:
        nonlocal certified
        if certified is not None:
            return
        for envelope in pool.take_payloads(CivitInputCert, session=session):
            payload = envelope.payload
            candidate = CertifiedValue(payload.value).with_certificate(
                payload.certificate
            )
            if validity.validate(candidate):
                ctx.emit("civit_certified", view=view)
                certified = candidate
                return

    def solicit(view: int) -> None:
        if view > 1:
            adopt(view - 1)
        # Round 1: a certificate-less certifier solicits; holders of a
        # certificate keep their view silent (the adaptivity argument).
        certifier = config.leader_of_phase(view)
        if ctx.pid == certifier and certified is None:
            ctx.emit("civit_view_non_silent", view=view, certifier=certifier)
            ctx.broadcast(CivitSolicit(session=session, view=view))

    def share(view: int) -> None:
        # Round 2: answer the view's certifier with our own input share.
        certifier = config.leader_of_phase(view)
        if not any(
            e.sender == certifier
            for e in pool.take_payloads(CivitSolicit, session=session, view=view)
        ):
            return
        partial = suite.partial_for_certificate(
            ctx.pid, label, quorum, input_statement(initial_value)
        )
        ctx.send(
            certifier,
            CivitInputShare(
                session=session,
                view=view,
                value=initial_value,
                partial=partial,
            ),
        )

    def combine(view: int) -> None:
        # Round 3: the certifier combines any t+1 matching shares.
        if ctx.pid != config.leader_of_phase(view) or certified is not None:
            return
        shares = pool.take_payloads(CivitInputShare, session=session, view=view)
        collectors = collect_by_value(
            suite, label, quorum,
            ((e.payload.value, e.payload.partial) for e in shares),
            input_statement,
        )
        for share_value, collector in collectors.items():
            if collector.complete:
                ctx.broadcast(
                    CivitInputCert(
                        session=session,
                        view=view,
                        value=share_value,
                        certificate=collector.certificate(),
                    )
                )
                break

    # One view is three rounds; adoption shares its tick with the next
    # view's round 1 (a last-tick broadcast still counts).  All but
    # ``solicit`` only react to pooled messages.
    yield from run_phases(ctx, pool, (solicit, share, combine), num_views)
    adopt(num_views)
    return certified


def civit_ba_protocol(
    ctx: ProcessContext,
    initial_value: object,
    *,
    session: str = "civit",
    binary: bool,
    num_views: int | None = None,
    num_phases: int | None = None,
    commit_quorum: int | None = None,
    echo_fallback_certificate: bool = True,
) -> Generator[None, None, object]:
    """The shared core: certification views, then the adaptive weak BA
    over certified values, then resolution.

    ``binary=True`` is the strong BA (inputs restricted to ``{0, 1}``,
    ``⊥`` resolved to :data:`RESOLUTION_VALUE`); ``binary=False`` is the
    multivalued adaptive variant, where ``⊥`` remains a permitted
    outcome exactly as in Definition 2.

    ``commit_quorum`` and ``echo_fallback_certificate`` pass through to
    the weak-BA core — they exist for the mutation harness
    (``repro.mc.mutants``), not for production use.
    """
    if binary and initial_value not in BINARY_VALUES:
        raise ConfigurationError(
            f"civit strong BA is binary; got initial value {initial_value!r}"
        )
    with ctx.scope("civit_ba"):
        config = ctx.config
        views = num_views if num_views is not None else config.t + 1
        phases = num_phases if num_phases is not None else config.n
        pool = MessagePool()

        certified = yield from certification_views(
            ctx,
            initial_value,
            session=session,
            num_views=views,
            pool=pool,
        )

        validity = CertifiedValidity(ctx.suite, config, session)
        ba_decision = yield from weak_ba_protocol(
            ctx,
            certified,
            validity,
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


def civit_strong_ba_protocol(
    ctx: ProcessContext,
    initial_value: int,
    *,
    session: str = "civit",
    num_views: int | None = None,
    num_phases: int | None = None,
    commit_quorum: int | None = None,
    echo_fallback_certificate: bool = True,
) -> Generator[None, None, object]:
    """Binary strong BA: never ``⊥``, strong validity in every run."""
    return (
        yield from civit_ba_protocol(
            ctx,
            initial_value,
            session=session,
            binary=True,
            num_views=num_views,
            num_phases=num_phases,
            commit_quorum=commit_quorum,
            echo_fallback_certificate=echo_fallback_certificate,
        )
    )


def civit_adaptive_strong_ba_protocol(
    ctx: ProcessContext,
    initial_value: object,
    *,
    session: str = "civit-asba",
    num_views: int | None = None,
    num_phases: int | None = None,
) -> Generator[None, None, object]:
    """Multivalued variant: strong unanimity, ``⊥`` permitted
    (Definition 2 semantics, comparable to the Section-3 extension)."""
    return (
        yield from civit_ba_protocol(
            ctx,
            initial_value,
            session=session,
            binary=False,
            num_views=num_views,
            num_phases=num_phases,
        )
    )


# ----------------------------------------------------------------------
# Table builders and the strong BA's envelopes
# ----------------------------------------------------------------------


def build_strong_ba(
    meta: dict,
    *,
    commit_quorum: int | None = None,
    echo_fallback_certificate: bool = True,
    **_code,
):
    """``meta -> factory(ctx)``, the table row's builder; the two code
    keywords are the inner weak BA's mutation knobs."""
    return lambda ctx: civit_strong_ba_protocol(
        ctx,
        meta.get("input"),
        session=meta.get("session", "civit"),
        num_views=meta.get("num_views"),
        num_phases=meta.get("num_phases"),
        commit_quorum=commit_quorum,
        echo_fallback_certificate=echo_fallback_certificate,
    )


def build_adaptive_strong_ba(meta: dict, **_code):
    """``meta -> factory(ctx)`` for the multivalued variant."""
    return lambda ctx: civit_adaptive_strong_ba_protocol(
        ctx,
        meta.get("input"),
        session=meta.get("session", "civit-asba"),
        num_phases=meta.get("num_phases"),
    )


def strong_ba_tick_bound(config: SystemConfig) -> int:
    """Failure-free ticks: ``t + 1`` certification views of
    :data:`VIEW_ROUNDS` ticks, then the whole weak-BA round structure
    (6 ticks per phase, ``n`` phases, help and grace epilogue)."""
    return VIEW_ROUNDS * (config.t + 1) + 6 * config.n + 15


def strong_ba_word_budget(config: SystemConfig, f: int) -> float:
    """Word envelope of a run with ``f`` silent faults.  Below the
    ``(n-t-1)/2`` fallback threshold the whole stack stays adaptive —
    one correct certification view plus the weak BA's ``O(n(f+1))``
    bill; at or above it the shared weak-BA core legitimately runs its
    quadratic fallback."""
    n = config.n
    if f >= config.fallback_failure_threshold:
        return 90.0 * n * n
    return 45.0 * n * (f + 1)
