"""Run export: serialize a RunResult to JSON for offline analysis.

Word records (one per point-to-point copy: the ledger's ``records``
view), trace events, decisions, and run metadata serialize losslessly;
payload objects are exported by type name and repr (the exact objects
carry live crypto material and are not meant to leave the process).
:func:`load_run` reads an export back into lightweight dataclasses —
each record as a one-recipient bill — so notebooks and external tools
can consume runs without importing the whole library.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.metrics.words import WordBill, WordLedger
from repro.runtime.result import RunResult
from repro.runtime.trace import Trace, TraceEvent

FORMAT_VERSION = 2
"""Version 2 adds per-record ``phase``, an optional ``meta`` block
(protocol/seed/num_phases, supplied by the caller), and an optional
``obs`` observer snapshot.  :func:`load_run` still reads version 1."""


def run_to_dict(result: RunResult, *, meta: dict | None = None) -> dict:
    """Serialize ``result`` to a JSON-compatible dict.

    ``meta`` is caller-supplied run context (protocol name, seed,
    ``num_phases``, …) that the result object itself cannot know; the
    ``repro obs summary`` silent-phase computation uses its
    ``num_phases`` as the planned-phase count.  When the result carries
    an observer, its snapshot is exported under ``obs``.
    """
    observer = getattr(result, "observer", None)
    return {
        "format_version": FORMAT_VERSION,
        "config": {"n": result.config.n, "t": result.config.t},
        "meta": dict(meta) if meta else {},
        "obs": observer.snapshot() if observer is not None else None,
        "f": result.f,
        "corrupted": sorted(result.corrupted),
        "ticks": result.ticks,
        "decisions": {
            str(pid): repr(value) for pid, value in result.decisions.items()
        },
        "halted_at": {str(pid): tick for pid, tick in result.halted_at.items()},
        "summary": {
            "correct_words": result.correct_words,
            "correct_messages": result.ledger.correct_messages,
            "signatures": result.ledger.signature_count(),
            "fallback_used": result.fallback_was_used(),
            "words_by_scope": result.ledger.words_by_scope(),
            "words_by_payload_type": result.ledger.words_by_payload_type(),
        },
        "records": [
            {
                "tick": r.tick,
                "sender": r.sender,
                "receiver": r.receiver,
                "words": r.words,
                "signatures": r.signatures,
                "scope": r.scope,
                "payload_type": r.payload_type,
                "sender_correct": r.sender_correct,
                "phase": r.phase,
            }
            for r in result.ledger.records
        ],
        "events": [
            {
                "tick": e.tick,
                "pid": e.pid,
                "scope": e.scope,
                "name": e.name,
                "data": {k: repr(v) for k, v in e.data},
            }
            for e in result.trace.events
        ],
    }


def save_run(
    result: RunResult, path: str | Path, *, meta: dict | None = None
) -> Path:
    """Write the JSON export; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(run_to_dict(result, meta=meta), indent=1))
    return path


@dataclass(frozen=True)
class LoadedRun:
    """A deserialized run: enough structure for offline analysis."""

    n: int
    t: int
    f: int
    corrupted: frozenset[int]
    ticks: int
    decisions: dict[int, str]
    summary: dict[str, Any]
    ledger: WordLedger
    trace: Trace
    meta: dict[str, Any]
    obs: dict[str, Any] | None

    @property
    def correct_words(self) -> int:
        return self.ledger.correct_words


def load_run(path: str | Path) -> LoadedRun:
    """Read an export produced by :func:`save_run`."""
    raw = json.loads(Path(path).read_text())
    if raw.get("format_version") not in (1, FORMAT_VERSION):
        raise ValueError(
            f"unsupported export format {raw.get('format_version')!r}"
        )
    ledger = WordLedger(
        bills=[
            WordBill(
                tick=r["tick"],
                sender=r["sender"],
                receivers=(r["receiver"],),
                words=r["words"],
                signatures=r["signatures"],
                scope=r["scope"],
                payload_type=r["payload_type"],
                sender_correct=r["sender_correct"],
                phase=r.get("phase"),
            )
            for r in raw["records"]
        ]
    )
    trace = Trace(
        events=[
            TraceEvent(
                tick=e["tick"],
                pid=e["pid"],
                scope=e["scope"],
                name=e["name"],
                data=tuple(sorted(e["data"].items())),
            )
            for e in raw["events"]
        ]
    )
    return LoadedRun(
        n=raw["config"]["n"],
        t=raw["config"]["t"],
        f=raw["f"],
        corrupted=frozenset(raw["corrupted"]),
        ticks=raw["ticks"],
        decisions={int(pid): v for pid, v in raw["decisions"].items()},
        summary=raw["summary"],
        ledger=ledger,
        trace=trace,
        meta=raw.get("meta", {}),
        obs=raw.get("obs"),
    )
