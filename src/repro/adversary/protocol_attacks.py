"""Protocol-aware Byzantine attacks.

These behaviors speak the protocols' wire formats and exercise their
specific safety arguments:

* :class:`WeakBaTeasingLeader` — proposes in its phase but never
  completes it, maximizing honest work per Byzantine leader (the
  ``O(n(f+1))`` adaptivity cost is *tight* under this adversary);
* :class:`WeakBaSplitFinalizeLeader` — runs the full leader logic but
  delivers the finalize certificate to a chosen subset only, creating
  the decided/undecided split the help round must repair (Section 6's
  "a Byzantine leader causes the single correct leader to decide and
  not initiate its phase" scenario);
* :class:`GcEquivocator` — claims different values to different halves
  of a graded-consensus committee, attacking graded agreement;
* :class:`DolevStrongEquivocatingSender` — the classical two-chain
  sender attack;
* :class:`BbVettingHelpSpammer` — a BB vetting leader that always asks
  for help, inflating the adaptive cost by ``O(n)`` per Byzantine
  phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import ProcessId
from repro.core.byzantine_broadcast import BbHelpReq
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
from repro.crypto.certificates import CertificateCollector
from repro.fallback.dolev_strong import initial_chain
from repro.fallback.graded_consensus import GcClaim
from repro.runtime.byzantine import ByzantineApi

WBA_PHASE_ROUNDS = 6
"""Ticks per weak-BA phase (see ``repro.core.weak_ba._phase_steps``)."""

BB_PHASE_ROUNDS = 3
"""Ticks per BB vetting phase (see ``repro.core.byzantine_broadcast``)."""


def weak_ba_phase_of(pid: ProcessId, n: int) -> int:
    """The first phase (1-based) led by ``pid`` under ``p_{j mod n}``."""
    return pid if pid != 0 else n


@dataclass
class WeakBaTeasingLeader:
    """Proposes a valid value in its phase, then abandons the phase.

    Honest processes spend a vote message each answering the proposal;
    nothing completes, so they stay undecided until a correct leader's
    phase.  With ``f`` such leaders scheduled before the first correct
    one, the honest word cost grows linearly in ``f`` — the matching
    behavior for the ``O(n(f+1))`` bound.
    """

    value: object
    session: str = "wba"
    start_tick: int = 0

    def step(self, api: ByzantineApi) -> None:
        phase = weak_ba_phase_of(api.pid, api.config.n)
        if api.now == self.start_tick + WBA_PHASE_ROUNDS * (phase - 1):
            api.broadcast(
                WbaPropose(session=self.session, phase=phase, value=self.value)
            )


@dataclass
class WeakBaSplitFinalizeLeader:
    """Completes its phase as leader but finalizes only to ``recipients``.

    The recipients decide inside the phases; everyone else reaches the
    help round undecided.  Agreement then hinges on Lemma 15 (unique
    finalize certificate) plus the help answers.
    """

    value: object
    recipients: frozenset[ProcessId]
    session: str = "wba"
    start_tick: int = 0
    _collected: dict = field(default_factory=dict, init=False)

    def step(self, api: ByzantineApi) -> None:
        config = api.config
        phase = weak_ba_phase_of(api.pid, config.n)
        base = self.start_tick + WBA_PHASE_ROUNDS * (phase - 1)
        quorum = config.commit_quorum
        if api.now == base:
            api.broadcast(
                WbaPropose(session=self.session, phase=phase, value=self.value)
            )
        elif api.now == base + 2:
            collector = CertificateCollector(
                api.suite,
                commit_label(self.session),
                quorum,
                ("commit", self.value, phase),
            )
            for envelope in api.inbox:
                payload = envelope.payload
                if isinstance(payload, WbaVote) and payload.phase == phase:
                    collector.add(payload.partial)
            # The whole corrupted coalition's shares push past the quorum.
            for accomplice in api.corrupted:
                collector.add(
                    api.suite.partial_for_certificate(
                        accomplice,
                        commit_label(self.session),
                        quorum,
                        ("commit", self.value, phase),
                    )
                )
            if collector.complete:
                api.broadcast(
                    WbaCommitCert(
                        session=self.session,
                        phase=phase,
                        value=self.value,
                        proof=collector.certificate(),
                        level=phase,
                    )
                )
        elif api.now == base + 4:
            collector = CertificateCollector(
                api.suite,
                finalize_label(self.session),
                quorum,
                ("finalized", self.value, phase),
            )
            for envelope in api.inbox:
                payload = envelope.payload
                if isinstance(payload, WbaDecideShare) and payload.phase == phase:
                    collector.add(payload.partial)
            for accomplice in api.corrupted:
                collector.add(
                    api.suite.partial_for_certificate(
                        accomplice,
                        finalize_label(self.session),
                        quorum,
                        ("finalized", self.value, phase),
                    )
                )
            if collector.complete:
                certificate = collector.certificate()
                for pid in self.recipients:
                    api.send(
                        pid,
                        WbaFinalize(
                            session=self.session,
                            phase=phase,
                            value=self.value,
                            proof=certificate,
                        ),
                    )


@dataclass
class WeakBaEquivocatingLeader:
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

    value_a: object
    value_b: object
    quorum: int
    session: str = "wba"
    start_tick: int = 0

    def _halves(self, api: ByzantineApi) -> tuple[list[ProcessId], list[ProcessId]]:
        others = [p for p in api.config.processes if p != api.pid]
        mid = len(others) // 2
        return others[:mid], others[mid:]

    def step(self, api: ByzantineApi) -> None:
        phase = weak_ba_phase_of(api.pid, api.config.n)
        base = self.start_tick + WBA_PHASE_ROUNDS * (phase - 1)
        half_a, half_b = self._halves(api)
        plan = {**{p: self.value_a for p in half_a},
                **{p: self.value_b for p in half_b}}
        if api.now == base:
            for pid, value in plan.items():
                api.send(
                    pid, WbaPropose(session=self.session, phase=phase, value=value)
                )
        elif api.now == base + 2:
            self._relay_certificates(
                api, phase, plan, WbaVote, commit_label(self.session),
                lambda value: ("commit", value, phase),
                lambda value, cert: WbaCommitCert(
                    session=self.session, phase=phase, value=value,
                    proof=cert, level=phase,
                ),
            )
        elif api.now == base + 4:
            self._relay_certificates(
                api, phase, plan, WbaDecideShare, finalize_label(self.session),
                lambda value: ("finalized", value, phase),
                lambda value, cert: WbaFinalize(
                    session=self.session, phase=phase, value=value, proof=cert
                ),
            )

    def _relay_certificates(
        self, api, phase, plan, payload_type, label, statement, wrap
    ) -> None:
        for value in (self.value_a, self.value_b):
            collector = CertificateCollector(
                api.suite, label, self.quorum, statement(value)
            )
            for envelope in api.inbox:
                message = envelope.payload
                if (
                    isinstance(message, payload_type)
                    and message.phase == phase
                    and message.value == value
                ):
                    collector.add(message.partial)
            for accomplice in api.corrupted:
                collector.add(
                    api.suite.partial_for_certificate(
                        accomplice, label, self.quorum, statement(value)
                    )
                )
            if collector.complete:
                certificate = collector.certificate()
                targets = [p for p, v in plan.items() if v == value]
                for pid in targets:
                    api.send(pid, wrap(value, certificate))


@dataclass
class WeakBaCommitOnlyLeader:
    """Completes the commit round of its phase (everyone updates their
    ``commit`` triple to its value) but withholds the finalize round.

    Exercises Algorithm 4's lock machinery across phases: once honest
    processes are committed, they answer later proposals with their
    commit info (line 36) instead of voting, so a later honest leader
    relays the maximal-level commitment (line 39) and the *committed*
    value — not the later leader's own proposal — gets finalized.
    """

    value: object
    session: str = "wba"
    start_tick: int = 0

    def step(self, api: ByzantineApi) -> None:
        config = api.config
        phase = weak_ba_phase_of(api.pid, config.n)
        base = self.start_tick + WBA_PHASE_ROUNDS * (phase - 1)
        quorum = config.commit_quorum
        if api.now == base:
            api.broadcast(
                WbaPropose(session=self.session, phase=phase, value=self.value)
            )
        elif api.now == base + 2:
            collector = CertificateCollector(
                api.suite,
                commit_label(self.session),
                quorum,
                ("commit", self.value, phase),
            )
            for envelope in api.inbox:
                payload = envelope.payload
                if isinstance(payload, WbaVote) and payload.phase == phase:
                    collector.add(payload.partial)
            for accomplice in api.corrupted:
                collector.add(
                    api.suite.partial_for_certificate(
                        accomplice,
                        commit_label(self.session),
                        quorum,
                        ("commit", self.value, phase),
                    )
                )
            if collector.complete:
                api.broadcast(
                    WbaCommitCert(
                        session=self.session,
                        phase=phase,
                        value=self.value,
                        proof=collector.certificate(),
                        level=phase,
                    )
                )
        # ... and never sends the finalize certificate.


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
        config = api.config
        requests = [
            e.payload
            for e in api.inbox
            if isinstance(e.payload, WbaHelpReq)
            and e.payload.session == self.session
        ]
        if not requests:
            return
        collector = CertificateCollector(
            api.suite,
            fallback_label(self.session),
            config.small_quorum,
            FALLBACK_STATEMENT,
        )
        for request in requests:
            collector.add(request.partial)
        for accomplice in api.corrupted:
            collector.add(
                api.suite.partial_for_certificate(
                    accomplice,
                    fallback_label(self.session),
                    config.small_quorum,
                    FALLBACK_STATEMENT,
                )
            )
        if collector.complete:
            api.send(
                self.target,
                WbaFallbackCert(
                    session=self.session,
                    certificate=collector.certificate(),
                    value=None,
                    proof=None,
                    proof_phase=0,
                ),
            )
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
        from repro.core.strong_ba import SbaPropose, propose_label

        if api.now != 1:
            return
        config = api.config
        certs = {}
        for value in (0, 1):
            collector = CertificateCollector(
                api.suite,
                propose_label(self.session),
                config.small_quorum,
                ("propose", value),
            )
            for envelope in api.inbox:
                payload = envelope.payload
                if (
                    type(payload).__name__ == "SbaInput"
                    and payload.value == value
                ):
                    collector.add(payload.partial)
            for accomplice in api.corrupted:
                collector.add(
                    api.suite.partial_for_certificate(
                        accomplice,
                        propose_label(self.session),
                        config.small_quorum,
                        ("propose", value),
                    )
                )
            if collector.complete:
                certs[value] = collector.certificate()
        if len(certs) < 2:
            return
        others = [p for p in config.processes if p != api.pid]
        for index, pid in enumerate(others):
            value = index % 2
            api.send(
                pid,
                SbaPropose(
                    session=self.session, value=value, proof=certs[value]
                ),
            )
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
        quorum = len(self.members) // 2 + 1
        member_set = frozenset(self.members)
        for index, member in enumerate(self.members):
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
