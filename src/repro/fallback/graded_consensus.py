"""Graded consensus for ``n = 2t + 1`` committees — the fallback's core.

Run among a committee ``S`` with an honest strict majority, every member
starting with an input value.  Each member outputs ``(value, grade)``
with ``grade`` in ``{0, 1, 2}`` satisfying:

* **Validity** — if every honest member inputs the same ``v``, every
  honest member outputs ``(v, 2)``.
* **Graded agreement** — if an honest member outputs ``(v, 2)``, every
  honest member outputs ``(v, g)`` with ``g >= 1``.

Protocol (4 rounds, each round all-to-committee, ``O(|S|^2)`` words,
quorum ``q = |S|//2 + 1`` — a strict majority, so any quorum contains an
honest member whenever the committee has an honest majority):

1. **claim** — broadcast your input together with your threshold share
   on the statement ``val(v)``.
2. **support** — for every value whose ``val`` statement gathered ``q``
   valid shares, combine ``QC_val(v)``; broadcast the certificates you
   formed (at most two — two suffice as conflict evidence).
3. **lock-share** — if you observed ``QC_val`` for *exactly one* value
   ``v``, broadcast your share on ``lock(v)`` **attached to**
   ``QC_val(v)``.  The attachment is the linchpin of graded agreement:
   any honest contribution toward a lock travels with the evidence that
   its value had support, so a *conflicting* lock can never stay hidden
   from a member that ends up with grade 2.
4. **lock-cert** — combine ``QC_lock(v)`` from ``q`` lock shares and
   broadcast it.

Grading: a member holding ``QC_lock(v)`` for exactly one value outputs
grade 2 if it never observed a certificate (``val`` or ``lock``) for any
other value, grade 1 otherwise; everyone else outputs its own input with
grade 0.

Correctness sketch (committee honest-majority assumed):

* *Validity*: all-honest-``v`` means only ``v`` can gather ``q`` shares
  (the adversary holds a minority of shares), every honest member forms
  and locks ``v``, and no conflicting certificate can exist.
* *Graded agreement*: suppose honest ``i`` outputs ``(v, 2)``.  A
  ``QC_lock(w)``, ``w != v``, needs a quorum of lock shares, hence an
  honest share on ``lock(w)``; that share was broadcast with
  ``QC_val(w)`` attached in round 3, so ``i`` would have observed the
  conflict by round 4 and graded 1 — contradiction.  So no
  ``QC_lock(w)`` exists anywhere; meanwhile ``i`` broadcast
  ``QC_lock(v)`` in round 4, so every honest member holds it as its
  unique lock and grades ``v`` at least 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from repro.config import ProcessId
from repro.crypto.certificates import QuorumCertificate, collect_by_value
from repro.crypto.threshold import PartialSignature
from repro.runtime.context import ProcessContext
from repro.runtime.envelope import Envelope
from repro.runtime.pool import MessagePool

GC_ROUNDS = 4
"""Synchronous rounds one graded-consensus instance occupies."""


# ----------------------------------------------------------------------
# Wire payloads (each a constant number of signatures/values -> 1 word)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class GcClaim:
    """Round 1: input value + threshold share on ``val(value)``."""

    session: str
    value: object
    partial: PartialSignature

    def signatures(self) -> int:
        return self.partial.signatures()


@dataclass(frozen=True)
class GcSupport:
    """Round 2: a formed ``QC_val`` (a member sends at most two)."""

    session: str
    certificate: QuorumCertificate

    def signatures(self) -> int:
        return self.certificate.signatures()


@dataclass(frozen=True)
class GcLockShare:
    """Round 3: share on ``lock(value)`` + the supporting ``QC_val``."""

    session: str
    value: object
    partial: PartialSignature
    support: QuorumCertificate

    def signatures(self) -> int:
        return 1 + self.support.signatures()


@dataclass(frozen=True)
class GcLockCert:
    """Round 4: a combined ``QC_lock``."""

    session: str
    certificate: QuorumCertificate

    def signatures(self) -> int:
        return self.certificate.signatures()


def _val_label(session: str) -> str:
    return f"gcv:{session}"


def _lock_label(session: str) -> str:
    return f"gcl:{session}"


def _identity(value: object) -> object:
    """Both statements sign the bare value (the label tells them apart)."""
    return value


def graded_consensus(
    ctx: ProcessContext,
    members: tuple[ProcessId, ...],
    value: object,
    session: str,
    round_ticks: int,
    pool: MessagePool,
) -> Generator[None, None, tuple[object, int]]:
    """Run one graded-consensus instance among ``members``.

    ``ctx.pid`` must be a member.  ``round_ticks`` is the synchronous
    round length in ticks (2 when running as the paper's fallback with
    ``delta' = 2 * delta``, Lemma 18); ``pool`` is the caller's shared
    message pool, which absorbs up-to-one-round skew between members.

    Returns ``(value, grade)``.
    """
    suite = ctx.suite
    members, member_set = suite.committee(members)
    quorum = len(members) // 2 + 1
    val_label = _val_label(session)
    lock_label = _lock_label(session)

    def from_members(envelope: Envelope) -> bool:
        return envelope.sender in member_set

    # Conflict tracking: every value for which this process has observed
    # a *valid* certificate (val or lock) during the instance.
    certified_values: set[object] = set()

    # Round 1 — claim.
    own_partial = suite.partial_for_certificate(
        ctx.pid, val_label, quorum, value, member_set
    )
    ctx.multicast(
        members, GcClaim(session=session, value=value, partial=own_partial)
    )
    pool.extend((yield from ctx.sleep(round_ticks)))

    # Round 2 — support: combine QC_val per claimed value.
    claims = pool.take_payloads(GcClaim, from_members, session=session)
    collectors = collect_by_value(
        suite, val_label, quorum,
        ((e.payload.value, e.payload.partial) for e in claims),
        _identity, member_set,
    )
    val_certs: dict[object, QuorumCertificate] = {}
    for claimed_value, collector in collectors.items():
        if collector.complete:
            val_certs[claimed_value] = collector.certificate()
            certified_values.add(claimed_value)
    # Two certificates suffice as conflict evidence.
    for certificate in list(val_certs.values())[:2]:
        ctx.multicast(
            members, GcSupport(session=session, certificate=certificate)
        )
    pool.extend((yield from ctx.sleep(round_ticks)))

    # Round 3 — lock-share, only if support is unequivocal.
    for envelope in pool.take_payloads(GcSupport, from_members, session=session):
        certificate = envelope.payload.certificate
        if suite.verify_certificate(certificate, val_label, quorum, member_set):
            certified_values.add(certificate.payload)
            val_certs.setdefault(certificate.payload, certificate)
    if len(certified_values) == 1:
        (locked_value,) = certified_values
        lock_partial = suite.partial_for_certificate(
            ctx.pid, lock_label, quorum, locked_value, member_set
        )
        ctx.multicast(
            members,
            GcLockShare(
                session=session,
                value=locked_value,
                partial=lock_partial,
                support=val_certs[locked_value],
            ),
        )
    pool.extend((yield from ctx.sleep(round_ticks)))

    # Round 4 — combine and broadcast lock certificates.
    supported = []
    for envelope in pool.take_payloads(GcLockShare, from_members, session=session):
        share = envelope.payload
        if suite.verify_certificate(
            share.support, val_label, quorum, member_set
        ) and share.support.payload == share.value:
            certified_values.add(share.value)  # the linchpin attachment
            supported.append((share.value, share.partial))
    lock_collectors = collect_by_value(
        suite, lock_label, quorum, supported, _identity, member_set
    )
    lock_certs: dict[object, QuorumCertificate] = {}
    for locked_value, collector in lock_collectors.items():
        if collector.complete:
            lock_certs[locked_value] = collector.certificate()
    for certificate in list(lock_certs.values())[:2]:
        ctx.multicast(
            members, GcLockCert(session=session, certificate=certificate)
        )
    pool.extend((yield from ctx.sleep(round_ticks)))

    # Evaluation — incorporate received lock certificates, then grade.
    for envelope in pool.take_payloads(GcLockCert, from_members, session=session):
        certificate = envelope.payload.certificate
        if suite.verify_certificate(certificate, lock_label, quorum, member_set):
            certified_values.add(certificate.payload)
            lock_certs.setdefault(certificate.payload, certificate)

    if len(lock_certs) == 1:
        (locked_value,) = lock_certs
        grade = 2 if certified_values == {locked_value} else 1
        return locked_value, grade
    return value, 0
