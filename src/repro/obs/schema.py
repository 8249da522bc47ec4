"""Schema for machine-readable benchmark results.

Every bench writes ``benchmarks/results/<name>.json`` through
:func:`benchmarks._harness.publish`; CI and ``repro obs validate``
check the emitted documents against this schema.  Validation is
hand-rolled (the project carries zero runtime dependencies); it covers
exactly the structure the schema constant declares — required keys,
types, and the per-entry shape of word bills and percentiles.
"""

from __future__ import annotations

import json
from pathlib import Path

SCHEMA_VERSION = 1

BENCH_RESULT_SCHEMA: dict = {
    "schema_version": "int == 1",
    "name": "str (the bench module's results stem)",
    "git_rev": "str | null (HEAD at generation time)",
    "scenario": "object of JSON scalars/lists (the bench's parameters)",
    "word_bills": [
        {
            "label": "str",
            "n": "int",
            "t": "int",
            "f": "int",
            "words": "int",
            "messages": "int",
            "signatures": "int",
            "fallback": "bool",
        }
    ],
    "wall_clock": {
        "unit": "'seconds'",
        "repeats": "int >= 1",
        "percentiles": {"p50": "float", "p90": "float", "p99": "float"},
    },
    "sections": ["str (the human-readable report, one entry per section)"],
}
"""Documentation-as-data: the shape :func:`validate_bench_result`
enforces.  ``wall_clock`` is ``null`` for the paper benches, which only
count (the soak fleet fills it with commit latencies); ``word_bills``
may be empty."""

_BILL_FIELDS = {
    "label": str,
    "n": int,
    "t": int,
    "f": int,
    "words": int,
    "messages": int,
    "signatures": int,
    "fallback": bool,
}


def _scenario_errors(value: object, path: str) -> list[str]:
    """Scenario entries must be JSON-representable — including ``null``
    (an empty run's ``silent_ratio`` is legitimately ``None``, and it
    must round-trip rather than fail validation).  Anything a bench
    sneaks in that ``json.dumps`` would choke on is caught *here*, as a
    schema violation, instead of as a crash halfway through writing the
    document."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return []
    if isinstance(value, list):
        errors: list[str] = []
        for i, item in enumerate(value):
            errors.extend(_scenario_errors(item, f"{path}[{i}]"))
        return errors
    if isinstance(value, dict):
        errors = []
        for key, item in value.items():
            if not isinstance(key, str):
                errors.append(f"{path} key {key!r} must be a string")
            else:
                errors.extend(_scenario_errors(item, f"{path}.{key}"))
        return errors
    return [f"{path} must be a JSON scalar/list/object, got {type(value).__name__}"]


def validate_bench_result(doc: object) -> list[str]:
    """Return every schema violation in ``doc`` (empty = valid)."""
    errors: list[str] = []
    if not isinstance(doc, dict):
        return [f"document must be an object, got {type(doc).__name__}"]
    if doc.get("schema_version") != SCHEMA_VERSION:
        errors.append(
            f"schema_version must be {SCHEMA_VERSION}, "
            f"got {doc.get('schema_version')!r}"
        )
    for key, kind in (("name", str), ("scenario", dict), ("sections", list)):
        if not isinstance(doc.get(key), kind):
            errors.append(f"{key} must be a {kind.__name__}")
    if isinstance(doc.get("scenario"), dict):
        errors.extend(_scenario_errors(doc["scenario"], "scenario"))
    git_rev = doc.get("git_rev")
    if git_rev is not None and not isinstance(git_rev, str):
        errors.append("git_rev must be a string or null")
    if isinstance(doc.get("sections"), list):
        for i, section in enumerate(doc["sections"]):
            if not isinstance(section, str):
                errors.append(f"sections[{i}] must be a string")
    bills = doc.get("word_bills")
    if not isinstance(bills, list):
        errors.append("word_bills must be a list")
    else:
        for i, bill in enumerate(bills):
            if not isinstance(bill, dict):
                errors.append(f"word_bills[{i}] must be an object")
                continue
            for field, kind in _BILL_FIELDS.items():
                value = bill.get(field)
                # bool is an int subclass; keep the two distinct.
                ok = (
                    isinstance(value, bool)
                    if kind is bool
                    else isinstance(value, kind) and not isinstance(value, bool)
                )
                if not ok:
                    errors.append(
                        f"word_bills[{i}].{field} must be a {kind.__name__}, "
                        f"got {value!r}"
                    )
    clock = doc.get("wall_clock")
    if clock is not None:
        if not isinstance(clock, dict):
            errors.append("wall_clock must be an object or null")
        else:
            if clock.get("unit") != "seconds":
                errors.append("wall_clock.unit must be 'seconds'")
            repeats = clock.get("repeats")
            if not isinstance(repeats, int) or isinstance(repeats, bool) or repeats < 1:
                errors.append("wall_clock.repeats must be an int >= 1")
            percentiles = clock.get("percentiles")
            if not isinstance(percentiles, dict):
                errors.append("wall_clock.percentiles must be an object")
            else:
                for p in ("p50", "p90", "p99"):
                    if not isinstance(percentiles.get(p), (int, float)) or isinstance(
                        percentiles.get(p), bool
                    ):
                        errors.append(f"wall_clock.percentiles.{p} must be a number")
    return errors


def validate_bench_result_file(path: str | Path) -> list[str]:
    """Validate one ``results/*.json`` file; parse errors count."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{path}: unreadable ({exc})"]
    return [f"{path}: {error}" for error in validate_bench_result(doc)]
