"""Forensics: identify Byzantine behavior from a recorded run.

The paper's protocols tolerate Byzantine processes without identifying
them; an operator running the system still wants to know *who* —
deployments gossip evidence and expel culprits out-of-band.  This
module audits a run recorded with ``Simulation(record_envelopes=True)``
and reports per-process findings:

* **equivocation** — one sender, one logical slot (session/phase/round
  and payload type), conflicting payload contents.  Correct processes
  never equivocate, so every finding names a Byzantine process;
* **identity lies** — payloads whose embedded value claims an origin
  the channel contradicts (where detectable);
* coverage statistics, since absence of findings is only meaningful
  against the amount of traffic audited.

Findings are *sound but not complete*: a silent Byzantine process is
indistinguishable from a crashed honest one (that is the whole point of
the adaptive adversary), so forensics can convict but never acquit.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable

from repro.config import ProcessId
from repro.runtime.envelope import Envelope
from repro.runtime.result import RunResult


@dataclass(frozen=True)
class Finding:
    """One piece of evidence against one process."""

    culprit: ProcessId
    kind: str
    slot: tuple
    detail: str


@dataclass
class ForensicsReport:
    """All findings for one run, plus coverage statistics."""

    findings: list[Finding] = field(default_factory=list)
    envelopes_audited: int = 0

    @property
    def culprits(self) -> frozenset[ProcessId]:
        return frozenset(f.culprit for f in self.findings)

    def against(self, pid: ProcessId) -> list[Finding]:
        return [f for f in self.findings if f.culprit == pid]

    def summary(self) -> str:
        if not self.findings:
            return (
                f"no Byzantine evidence in {self.envelopes_audited} envelopes"
                " (silence is not innocence)"
            )
        lines = [
            f"{len(self.findings)} finding(s) against "
            f"{sorted(self.culprits)} in {self.envelopes_audited} envelopes:"
        ]
        lines += [
            f"  p{f.culprit} [{f.kind}] slot={f.slot}: {f.detail}"
            for f in self.findings
        ]
        return "\n".join(lines)


def _slot_of(envelope: Envelope) -> tuple:
    """The logical slot a payload belongs to: correct processes send at
    most one distinct payload per slot."""
    payload = envelope.payload
    return (
        type(payload).__name__,
        getattr(payload, "session", None),
        getattr(payload, "phase", None),
        getattr(payload, "exchange", None),
        envelope.sent_at,
    )


def _content_of(envelope: Envelope) -> str:
    """A comparable rendering of the payload's distinguishing content."""
    payload = envelope.payload
    for attribute in ("value", "signed", "certificate", "chain"):
        if hasattr(payload, attribute):
            return repr(getattr(payload, attribute))
    return repr(payload)


def audit_envelopes(
    result: RunResult,
    envelopes: Iterable[tuple[ProcessId, Envelope]] | None = None,
) -> ForensicsReport:
    """Audit recorded ``(receiver, envelope)`` pairs for per-slot
    equivocation.

    Uses ``result.envelopes`` by default (requires the run to have been
    recorded with ``record_envelopes=True``).
    """
    report = ForensicsReport()
    pool = list(envelopes if envelopes is not None else result.envelopes)
    report.envelopes_audited = len(pool)

    by_sender_slot: dict[tuple, dict[str, list[ProcessId]]] = defaultdict(
        lambda: defaultdict(list)
    )
    for receiver, envelope in pool:
        key = (envelope.sender, _slot_of(envelope))
        by_sender_slot[key][_content_of(envelope)].append(receiver)

    flagged: set[tuple] = set()
    for (sender, slot), variants in by_sender_slot.items():
        if len(variants) < 2:
            continue
        if (sender, slot) in flagged:
            continue
        flagged.add((sender, slot))
        contents = sorted(variants)
        report.findings.append(
            Finding(
                culprit=sender,
                kind="equivocation",
                slot=slot,
                detail=(
                    f"{len(variants)} conflicting payloads, e.g. "
                    f"{contents[0][:60]} vs {contents[1][:60]}"
                ),
            )
        )
    return report
