"""Protocol-aware Byzantine attacks.

These behaviors speak the protocols' wire formats and exercise their
specific safety arguments:

* :class:`WeakBaLeader` — a weak-BA leader scripting its own phase;
  the teasing, commit-only, split-finalize and equivocating leader
  attacks are its spellings;
* :class:`FallbackCertDealer` — Section 6's fallback-certificate attack;
* :class:`StrongBaEquivocatingLeader` — Algorithm 5's two-bit leader;
* :class:`GcEquivocator` — claims different values to different halves
  of a graded-consensus committee, attacking graded agreement;
* :class:`DolevStrongEquivocatingSender` — the classical two-chain
  sender attack;
* :class:`BbVettingHelpSpammer` — a BB vetting leader that always asks
  for help, inflating the adaptive cost by ``O(n)`` per Byzantine
  phase.

Every forged quorum ("the adversary adds t help_req signatures of its
own", Section 6) goes through :func:`coalition_certificate`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Iterable

from repro.config import ProcessId
from repro.core.byzantine_broadcast import BB_PHASE_ROUNDS, BbHelpReq
from repro.core.strong_ba import SbaInput, SbaPropose, propose_label
from repro.core.weak_ba import (
    FALLBACK_STATEMENT,
    WbaCommitCert,
    WbaDecideShare,
    WbaFallbackCert,
    WbaFinalize,
    WbaHelpReq,
    WbaPropose,
    WbaVote,
    commit_label,
    fallback_label,
    finalize_label,
)
from repro.crypto.certificates import CertificateCollector, QuorumCertificate
from repro.fallback.dolev_strong import initial_chain
from repro.fallback.graded_consensus import GcClaim
from repro.runtime.byzantine import ByzantineApi

WBA_PHASE_ROUNDS = 6
"""Ticks per weak-BA phase (see ``repro.core.weak_ba._phase_steps``)."""


def weak_ba_phase_of(pid: ProcessId, n: int) -> int:
    """The first phase (1-based) led by ``pid`` under ``p_{j mod n}``."""
    return pid if pid != 0 else n


def coalition_certificate(
    api: ByzantineApi, label: str, quorum: int, statement: object,
    partials: Iterable[object] = (),
) -> QuorumCertificate | None:
    """``QC_label(statement)`` from the honest ``partials`` plus every
    corrupted process's own share, or ``None`` if that falls short.
    Honest partials go first, accomplices after them; anything in
    ``partials`` that is not a valid share is ignored, never raised on."""
    collector = CertificateCollector(api.suite, label, quorum, statement)
    for partial in partials:
        if collector.add(partial):
            return collector.certificate()
    for accomplice in api.corrupted:
        share = api.suite.partial_for_certificate(accomplice, label, quorum, statement)
        if collector.add(share):
            return collector.certificate()
    return None


def _inbox_partials(api: ByzantineApi, kind: type, **fields: object) -> list:
    """The partials carried by this tick's ``kind`` payloads whose
    ``fields`` equal the given values, in delivery order."""
    return [
        payload.partial
        for payload in (envelope.payload for envelope in api.inbox)
        if isinstance(payload, kind)
        and all(getattr(payload, key) == want for key, want in fields.items())
    ]


class Reach(IntEnum):
    """The last round a :class:`WeakBaLeader` plays: ``2 * reach`` of its phase."""

    PROPOSE, COMMIT, FINALIZE = range(3)


@dataclass
class WeakBaLeader:
    """A Byzantine leader scripting its own weak-BA phase (Algorithm 4):
    one value is proposed to every other process; two go to the lower
    and upper halves of the others, in pid order.  Up to ``reach``, each
    value's commit and finalize certificates are completed with the
    coalition's shares under ``quorum`` (``None``: ``⌈(n+t+1)/2⌉``) and
    sent to the processes proposed that value — the finalize certificate
    only to those in ``finalize_to``, when given.  A message for every
    other process is one broadcast, any other one send per pid.  Plain
    data only: the model checker's behaviour fingerprint hashes its repr."""

    values: tuple
    reach: Reach = Reach.FINALIZE
    finalize_to: frozenset[ProcessId] | None = None
    quorum: int | None = None
    session: str = "wba"
    start_tick: int = 0

    def step(self, api: ByzantineApi) -> None:
        phase = weak_ba_phase_of(api.pid, api.config.n)
        offset = api.now - self.start_tick - WBA_PHASE_ROUNDS * (phase - 1)
        if offset not in (0, 2, 4) or offset > 2 * self.reach:
            return
        others = [p for p in api.config.processes if p != api.pid]
        mid = len(others) // 2 if len(self.values) == 2 else len(others)
        for value, pids in zip(self.values, (others[:mid], others[mid:])):
            message = self._message(api, offset, phase, value)
            if message is None:
                continue
            if offset == 4 and self.finalize_to is not None:
                pids = [p for p in pids if p in self.finalize_to]
            elif pids == others:
                api.broadcast(message)
                continue
            for pid in pids:
                api.send(pid, message)

    def _message(self, api, offset, phase, value):
        """The proposal of ``value``, or its certificate if it completes."""
        if offset == 0:
            return WbaPropose(self.session, phase, value)
        kind, label, name = (
            (WbaVote, commit_label, "commit") if offset == 2
            else (WbaDecideShare, finalize_label, "finalized")
        )
        quorum = api.config.commit_quorum if self.quorum is None else self.quorum
        proof = coalition_certificate(
            api, label(self.session), quorum, (name, value, phase),
            _inbox_partials(api, kind, phase=phase, value=value),
        )
        if proof is None:
            return None
        if offset == 2:
            return WbaCommitCert(self.session, phase, value, proof, level=phase)
        return WbaFinalize(self.session, phase, value, proof)


def WeakBaTeasingLeader(value, session="wba", start_tick=0) -> WeakBaLeader:
    """Proposes a valid value in its phase, then abandons the phase.

    Honest processes spend a vote message each answering the proposal;
    nothing completes, so they stay undecided until a correct leader's
    phase.  With ``f`` such leaders scheduled before the first correct
    one, the honest word cost grows linearly in ``f`` — the matching
    behavior for the ``O(n(f+1))`` bound.
    """
    return WeakBaLeader((value,), Reach.PROPOSE, session=session, start_tick=start_tick)


def WeakBaCommitOnlyLeader(value, session="wba", start_tick=0) -> WeakBaLeader:
    """Completes the commit round of its phase (everyone updates their
    ``commit`` triple to its value) but withholds the finalize round.

    Exercises Algorithm 4's lock machinery across phases: once honest
    processes are committed, they answer later proposals with their
    commit info (line 36) instead of voting, so a later honest leader
    relays the maximal-level commitment (line 39) and the *committed*
    value — not the later leader's own proposal — gets finalized.
    """
    return WeakBaLeader((value,), Reach.COMMIT, session=session, start_tick=start_tick)


def WeakBaSplitFinalizeLeader(
    value, recipients, session="wba", start_tick=0
) -> WeakBaLeader:
    """Completes its phase as leader but finalizes only to ``recipients``.

    The recipients decide inside the phases; everyone else reaches the
    help round undecided.  Agreement then hinges on Lemma 15 (unique
    finalize certificate) plus the help answers.
    """
    return WeakBaLeader(
        (value,), finalize_to=frozenset(recipients), session=session,
        start_tick=start_tick,
    )


def WeakBaEquivocatingLeader(
    value_a, value_b, quorum, session="wba", start_tick=0
) -> WeakBaLeader:
    """The quorum-ablation attack: a Byzantine leader drives *two*
    conflicting values through a full phase, finalizing each to half
    the processes.

    With the paper's ``⌈(n+t+1)/2⌉`` quorum this cannot produce two
    commit certificates (any two quorums share a correct voter, and
    correct processes vote once per phase), so the attack fizzles.
    With the ablated ``t+1`` quorum, ``⌈honest/2⌉`` votes plus the
    adversary's own shares complete *both* certificates and agreement
    breaks — the measurement behind
    ``benchmarks/bench_ablation_quorum.py``.
    """
    return WeakBaLeader(
        (value_a, value_b), quorum=quorum, session=session, start_tick=start_tick
    )


@dataclass
class FallbackCertDealer:
    """The fallback-synchronization attack (Section 6's "the adversary
    adds t help_req signatures of its own"): collect the (fewer than
    t+1) honest help requests, top the certificate up with corrupted
    shares, and deal it to a *single* correct process.

    With the paper's echo rule the victim re-broadcasts the certificate
    and every correct process enters the fallback within delta.  With
    echoing ablated, only the victim runs the fallback — the
    measurement behind ``benchmarks/bench_ablation_fallback_sync.py``.
    """

    target: ProcessId
    session: str = "wba"
    _dealt: bool = field(default=False, init=False)

    def step(self, api: ByzantineApi) -> None:
        if self._dealt:
            return
        requests = _inbox_partials(api, WbaHelpReq, session=self.session)
        if not requests:
            return
        certificate = coalition_certificate(
            api, fallback_label(self.session), api.config.small_quorum,
            FALLBACK_STATEMENT, requests,
        )
        if certificate is not None:
            api.send(self.target, WbaFallbackCert(
                self.session, certificate, value=None, proof=None, proof_phase=0
            ))
            self._dealt = True
            api.emit("fallback_cert_dealt", target=self.target)


@dataclass
class StrongBaEquivocatingLeader:
    """A Byzantine Algorithm-5 leader that proposes 0 to half the
    processes and 1 to the other half.

    The attack cannot split decisions: the decide certificate needs all
    ``n`` signatures (line 11), and the halves sign decide messages for
    *different* values, so neither certificate completes.  Everyone
    falls back; the test asserts no fast decision and eventual
    agreement — the measured content of Lemma 26.
    """

    session: str = "sba"

    def step(self, api: ByzantineApi) -> None:
        if api.now != 1:
            return
        certs = {}
        for value in (0, 1):
            certs[value] = coalition_certificate(
                api, propose_label(self.session), api.config.small_quorum,
                ("propose", value), _inbox_partials(api, SbaInput, value=value),
            )
            if certs[value] is None:
                return
        others = [p for p in api.config.processes if p != api.pid]
        for index, pid in enumerate(others):
            api.send(pid, SbaPropose(self.session, index % 2, certs[index % 2]))
        api.emit("sba_leader_equivocated")


@dataclass
class GcEquivocator:
    """Sends conflicting graded-consensus claims to the two halves of
    the committee — the canonical attack on graded agreement."""

    session: str
    members: tuple[ProcessId, ...]
    value_a: object
    value_b: object
    start_tick: int = 0

    def step(self, api: ByzantineApi) -> None:
        if api.now != self.start_tick:
            return
        members, member_set = api.suite.committee(self.members)
        quorum = len(members) // 2 + 1
        for index, member in enumerate(members):
            value = self.value_a if index % 2 == 0 else self.value_b
            partial = api.suite.partial_for_certificate(
                api.pid, f"gcv:{self.session}", quorum, value, member_set
            )
            api.send(
                member,
                GcClaim(session=self.session, value=value, partial=partial),
            )


@dataclass
class DolevStrongLateRelease:
    """The chain-stretching worst case for Dolev–Strong.

    The Byzantine sender and its ``t-1`` accomplices privately extend
    the signature chain through every corrupted process and only
    release it to the honest processes in round ``t`` — the last round
    in which relaying is still mandatory.  Every honest process then
    relays an all-but-maximal chain to everyone, making each message
    carry ``t+1`` signatures: *words* blow up to ``Θ(n^2 t)`` while
    *messages* stay ``Θ(n^2)``.  This is the regime behind Section 4's
    remark that Dolev–Reischuk-style algorithms need "a cubic number of
    words".

    Install on the sender only; it signs for all corrupted processes
    (the adversary coordinates).
    """

    value: object

    def step(self, api: ByzantineApi) -> None:
        t = api.config.t
        if api.now != max(0, t - 1):
            return
        from repro.fallback.dolev_strong import initial_chain

        chain = initial_chain(api.signer, self.value)
        links = [pid for pid in sorted(api.corrupted) if pid != api.pid]
        for accomplice in links[: t - 1]:
            chain = chain.extended(api.suite.signer(accomplice))
        for pid in api.config.processes:
            if pid not in api.corrupted:
                api.send(pid, chain)


@dataclass
class DolevStrongEquivocatingSender:
    """The Byzantine Dolev–Strong sender: two signed chains, split
    between the halves of the process set."""

    value_a: object
    value_b: object

    def step(self, api: ByzantineApi) -> None:
        if api.now != 0:
            return
        for pid in api.config.processes:
            if pid == api.pid:
                continue
            value = self.value_a if pid % 2 == 0 else self.value_b
            api.send(pid, initial_chain(api.signer, value))


@dataclass
class BbVettingHelpSpammer:
    """A BB vetting leader that always broadcasts ``help_req`` in its
    phase (even though Byzantine processes "know" the value), forcing
    every correct process to answer — ``O(n)`` honest words per
    Byzantine phase, the tight adaptive cost for BB."""

    session: str = "bb"
    start_tick: int = 1  # BB's dissemination round precedes the phases

    def step(self, api: ByzantineApi) -> None:
        phase = weak_ba_phase_of(api.pid, api.config.n)
        if api.now == self.start_tick + BB_PHASE_ROUNDS * (phase - 1):
            api.broadcast(BbHelpReq(session=self.session, phase=phase))
