"""Digest a recorded run into the paper's observability headlines.

Input is the JSON export written by ``repro run --export`` (see
:mod:`repro.analysis.export`), optionally carrying an ``obs`` snapshot
and a ``meta`` block.  Output is a plain dict — per-phase word counts,
the silent-phase ratio (the paper's adaptivity headline: phases with no
correct-process traffic cost nothing), fallback-entry skew across
processes (Lemma 18 bounds it by one round), and hot spots (the
busiest ticks).
"""

from __future__ import annotations

from typing import Any


def _phase_of(record: dict) -> int | None:
    phase = record.get("phase")
    return phase if isinstance(phase, int) else None


def summarize_export(raw: dict) -> dict:
    """Compute the observability summary of one exported run."""
    records = raw.get("records", [])
    events = raw.get("events", [])
    meta = raw.get("meta") or {}
    summary = raw.get("summary", {})

    words_by_phase: dict[int, int] = {}
    words_by_tick: dict[int, int] = {}
    for record in records:
        if not record.get("sender_correct", True):
            continue
        words = record.get("words", 1)
        phase = _phase_of(record)
        if phase is not None:
            words_by_phase[phase] = words_by_phase.get(phase, 0) + words
        tick = record.get("tick", 0)
        words_by_tick[tick] = words_by_tick.get(tick, 0) + words

    planned = meta.get("num_phases")
    if not isinstance(planned, int) or planned < 1:
        planned = max(words_by_phase, default=0)
    non_silent = sum(
        1 for phase in range(1, planned + 1) if words_by_phase.get(phase, 0) > 0
    )
    silent = planned - non_silent

    fallback_entry: dict[int, int] = {}
    for event in events:
        if event.get("name") == "fallback_started":
            pid = event.get("pid")
            if pid is not None and pid not in fallback_entry:
                fallback_entry[pid] = event.get("tick", 0)
    skew = (
        max(fallback_entry.values()) - min(fallback_entry.values())
        if fallback_entry
        else None
    )

    hot_ticks = sorted(
        words_by_tick.items(), key=lambda kv: (-kv[1], kv[0])
    )[:5]

    return {
        "totals": {
            "correct_words": summary.get("correct_words"),
            "correct_messages": summary.get("correct_messages"),
            "signatures": summary.get("signatures"),
            "ticks": raw.get("ticks"),
            "f": raw.get("f"),
        },
        "words_by_phase": {
            str(phase): words_by_phase[phase] for phase in sorted(words_by_phase)
        },
        "phases": {
            "planned": planned,
            "non_silent": non_silent,
            "silent": silent,
            "silent_ratio": (silent / planned) if planned else None,
        },
        "fallback": {
            "used": bool(fallback_entry) or bool(summary.get("fallback_used")),
            "entry_ticks": {
                str(pid): fallback_entry[pid] for pid in sorted(fallback_entry)
            },
            "entry_skew": skew,
        },
        "hot_spots": {
            "busiest_ticks": [
                {"tick": tick, "words": words} for tick, words in hot_ticks
            ],
        },
    }


def _fmt(value: Any) -> str:
    return "-" if value is None else str(value)


def render_summary(summary: dict) -> str:
    """Human-readable rendering of :func:`summarize_export`'s output."""
    totals = summary["totals"]
    phases = summary["phases"]
    fallback = summary["fallback"]
    lines = [
        f"run: f={_fmt(totals['f'])}, ticks={_fmt(totals['ticks'])}, "
        f"words={_fmt(totals['correct_words'])}, "
        f"messages={_fmt(totals['correct_messages'])}, "
        f"signatures={_fmt(totals['signatures'])}",
        "",
        "words by phase:",
    ]
    if summary["words_by_phase"]:
        for phase, words in summary["words_by_phase"].items():
            lines.append(f"  phase {phase:>3}  {words} words")
    else:
        lines.append("  (no phase-stamped traffic)")
    ratio = phases["silent_ratio"]
    lines += [
        "",
        f"phases: {phases['planned']} planned, {phases['non_silent']} "
        f"non-silent, {phases['silent']} silent"
        + (f" (silent ratio {ratio:.1%})" if ratio is not None else ""),
        "",
    ]
    if fallback["entry_ticks"]:
        lines.append(
            f"fallback: entered by {len(fallback['entry_ticks'])} processes, "
            f"entry skew {fallback['entry_skew']} tick(s)"
        )
        for pid, tick in fallback["entry_ticks"].items():
            lines.append(f"  p{pid} entered at tick {tick}")
    else:
        lines.append(
            "fallback: not entered"
            if not fallback["used"]
            else "fallback: used (no per-process entry events recorded)"
        )
    lines += ["", "hot spots:"]
    for entry in summary["hot_spots"]["busiest_ticks"]:
        lines.append(f"  tick {entry['tick']:>4}  {entry['words']} words")
    return "\n".join(lines)
