"""Message-flow analysis: who talked to whom, when, and at what cost.

Operates on the :class:`~repro.metrics.words.WordLedger` (always
available) and, for the sequence diagram, on raw envelopes (record them
with ``Simulation(..., record_envelopes=True)``).  Used by tests, the
deep-dive example, and anyone debugging a protocol run.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Sequence

from repro.config import ProcessId
from repro.metrics.words import WordLedger
from repro.runtime.envelope import Envelope
from repro.runtime.result import RunResult
from repro.runtime.trace import TraceEvent


def words_per_tick(
    ledger: WordLedger, correct_only: bool = True
) -> dict[int, int]:
    """Total words sent at each tick."""
    totals: dict[int, int] = defaultdict(int)
    for record in ledger.records:
        if correct_only and not record.sender_correct:
            continue
        totals[record.tick] += record.words
    return dict(totals)


def flow_matrix(
    ledger: WordLedger, n: int, correct_only: bool = True
) -> list[list[int]]:
    """``matrix[sender][receiver]`` = words sent over the whole run."""
    matrix = [[0] * n for _ in range(n)]
    for record in ledger.records:
        if correct_only and not record.sender_correct:
            continue
        matrix[record.sender][record.receiver] += record.words
    return matrix


def render_flow_matrix(matrix: Sequence[Sequence[int]]) -> str:
    """ASCII heat table of the sender -> receiver word flows."""
    n = len(matrix)
    width = max(3, max((len(str(v)) for row in matrix for v in row), default=1))
    header = "to:  " + " ".join(str(j).rjust(width) for j in range(n))
    lines = [header]
    for i, row in enumerate(matrix):
        cells = " ".join(
            (str(v) if v else "·").rjust(width) for v in row
        )
        lines.append(f"p{i:<3} {cells}")
    return "\n".join(lines)


def leader_centrality(ledger: WordLedger, n: int) -> dict[ProcessId, float]:
    """Fraction of all correct words touching each process (as sender or
    receiver) — leaders of non-silent phases stand out."""
    touch: dict[ProcessId, int] = defaultdict(int)
    total = 0
    for record in ledger.records:
        if not record.sender_correct:
            continue
        touch[record.sender] += record.words
        touch[record.receiver] += record.words
        total += 2 * record.words
    if total == 0:
        return {pid: 0.0 for pid in range(n)}
    return {pid: touch.get(pid, 0) / total for pid in range(n)}


def activity_timeline(result: RunResult, width: int = 50) -> str:
    """One line per tick: a bar of the words sent plus the payload types
    and any trace events — the run at a glance."""
    per_tick = words_per_tick(result.ledger)
    types_per_tick: dict[int, set[str]] = defaultdict(set)
    for record in result.ledger.records:
        if record.sender_correct:
            types_per_tick[record.tick].add(record.payload_type)
    events_per_tick: dict[int, list[TraceEvent]] = defaultdict(list)
    for event in result.trace.events:
        events_per_tick[event.tick].append(event)

    peak = max(per_tick.values(), default=1) or 1
    lines = []
    for tick in range(result.ticks + 1):
        words = per_tick.get(tick, 0)
        if not words and tick not in events_per_tick:
            continue
        bar = "#" * max(0, round(width * words / peak))
        annotations = ",".join(sorted(types_per_tick.get(tick, ())))
        event_names = {e.name for e in events_per_tick.get(tick, ())}
        marks = (" [" + ",".join(sorted(event_names)) + "]") if event_names else ""
        lines.append(f"t={tick:<5} {words:>5}w |{bar:<{width}}| {annotations}{marks}")
    return "\n".join(lines)


def sequence_diagram(
    envelopes: Iterable[tuple[ProcessId, Envelope]],
    *,
    max_messages: int = 200,
) -> str:
    """A textual sequence diagram of recorded ``(receiver, envelope)``
    pairs (small runs)."""
    lines = []
    for index, (receiver, envelope) in enumerate(envelopes):
        if index >= max_messages:
            lines.append(f"... (+ more, truncated at {max_messages})")
            break
        lines.append(
            f"t={envelope.sent_at:<4} p{envelope.sender} -> "
            f"p{receiver}: {type(envelope.payload).__name__}"
        )
    return "\n".join(lines)


def silent_ticks(result: RunResult) -> list[int]:
    """Ticks in which no correct process sent anything — the literal
    silence the adaptive protocols monetize."""
    per_tick = words_per_tick(result.ledger)
    return [t for t in range(result.ticks) if per_tick.get(t, 0) == 0]
