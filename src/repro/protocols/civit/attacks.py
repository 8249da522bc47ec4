"""Byzantine attacks against the civit backend.

The civit stack's inner agreement core is the shared Algorithm-3 weak
BA, so these classes add only the *certification prelude* to the
session-parametric leader of :mod:`repro.adversary.protocol_attacks`: a
Byzantine view-1 certifier harvests the input shares honest processes
send it, tops them up with the coalition's own (Section 6's "adds ``t``
signatures of its own"), and runs the leader attack at the inner
session (``<session>/wba``), offset past the certification views.

:class:`CivitEquivocatingCertifier` needs certificates for *both*
binary values: in a mixed run, each value has at least one correct
share, and ``t`` coalition shares complete the ``t+1`` quorum — a
Byzantine certifier can certify two conflicting values even though no
correct certifier could certify either.  This is why certification
alone does not provide agreement and the quorum-intersection argument
of the inner core still carries it (the ``civit-quorum-off-by-one``
mutant ablates exactly that argument).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.adversary.protocol_attacks import (
    WeakBaEquivocatingLeader,
    WeakBaLeader,
    WeakBaSplitFinalizeLeader,
    coalition_certificate,
)
from repro.config import ProcessId
from repro.core.adaptive_strong_ba import (
    CERT_PHASE_ROUNDS,
    SbaCertRequest,
    SbaInputShare,
)
from repro.core.validity import CertifiedValue, input_label, input_statement
from repro.runtime.byzantine import ByzantineApi


def _harvest_certificates(
    api: ByzantineApi, session: str, phase: int
) -> dict[object, CertifiedValue]:
    """Certify every value whose honest shares plus the coalition's own
    shares reach the ``t+1`` input quorum, in first-seen order."""
    shares: dict[object, list] = {}
    for payload in (envelope.payload for envelope in api.inbox):
        mine = isinstance(payload, SbaInputShare) and payload.session == session
        if mine and payload.phase == phase:
            try:
                shares.setdefault(payload.value, []).append(payload.partial)
            except TypeError:  # an unhashable value off the wire
                continue
    certified: dict[object, CertifiedValue] = {}
    for value, partials in shares.items():
        certificate = coalition_certificate(
            api, input_label(session), api.config.small_quorum,
            input_statement(value), partials,
        )
        if certificate is not None:
            certified[value] = CertifiedValue(value).with_certificate(certificate)
    return certified


@dataclass
class CivitEquivocatingCertifier:
    """View-1 certifier that certifies *both* binary values, then runs
    the quorum-ablation equivocation inside the inner weak BA.

    ``quorum`` is the inner commit quorum the scenario runs with: under
    the paper's ``⌈(n+t+1)/2⌉`` the equivocation fizzles (one finalize
    certificate at most), under the ablated ``t+1`` agreement breaks —
    the civit twin of ``WeakBaEquivocatingLeader``'s measurement.
    """

    quorum: int
    session: str = "civit"
    num_views: int = 2
    _inner: WeakBaLeader | None = field(default=None, init=False)

    def step(self, api: ByzantineApi) -> None:
        if api.now == 0:
            api.broadcast(SbaCertRequest(session=self.session, phase=1))
        elif api.now == 2:
            certified = _harvest_certificates(api, self.session, phase=1)
            if all(value in certified for value in (0, 1)):
                self._inner = WeakBaEquivocatingLeader(
                    value_a=certified[0],
                    value_b=certified[1],
                    quorum=self.quorum,
                    session=f"{self.session}/wba",
                    start_tick=CERT_PHASE_ROUNDS * self.num_views,
                )
                api.emit("civit_certifier_equivocated")
        elif self._inner is not None:
            self._inner.step(api)


@dataclass
class CivitSplitCertifier:
    """View-1 certifier that certifies the most popular harvestable
    value *privately*, then split-finalizes it to ``recipients`` inside
    the inner weak BA — the cert-dealer scenario's split leader, civit
    edition.  Because the certificate is never broadcast (and no value
    reaches ``t+1`` correct shares on its own), honest certifiers stay
    empty-handed and the victims reach the help round undecided."""

    recipients: frozenset[ProcessId]
    session: str = "civit"
    num_views: int = 4
    _inner: WeakBaLeader | None = field(default=None, init=False)

    def step(self, api: ByzantineApi) -> None:
        if api.now == 0:
            api.broadcast(SbaCertRequest(session=self.session, phase=1))
        elif api.now == 2:
            certified = _harvest_certificates(api, self.session, phase=1)
            if certified:
                value = min(certified, key=repr)  # deterministic pick
                self._inner = WeakBaSplitFinalizeLeader(
                    value=certified[value],
                    recipients=self.recipients,
                    session=f"{self.session}/wba",
                    start_tick=CERT_PHASE_ROUNDS * self.num_views,
                )
        elif self._inner is not None:
            self._inner.step(api)
