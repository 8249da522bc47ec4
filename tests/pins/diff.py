"""Compare two pin files column by column: what moved, and was it allowed.

``python tests/pins/diff.py OLD NEW [--allow COL,...]`` (with
``PYTHONPATH=src``) reads two pins written by the ``make_*`` scripts in
this directory (``{case: [column, ...]}``, one row per line) and

* checks that both list the same case ids in the same order;
* prints, for every column, how many cases moved and the first three
  of their ids;
* exits 1 if a column outside ``--allow`` moved, 2 if the case ids or
  their order differ, and 0 otherwise.

When either file is named ``sparse_time.json``, columns are named by
:data:`make_sparse_pin.FIELDS`; otherwise they are named by position
(``0``, ``1``, ...).  ``--allow`` takes either spelling.  A case whose
row got shorter or longer moved in every column it lacks on one side.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import zip_longest
from pathlib import Path

if __package__:
    from .make_sparse_pin import FIELDS, PIN
else:  # run as a script
    from make_sparse_pin import FIELDS, PIN

_MISSING = object()


def column_names(paths: tuple[Path, ...], width: int) -> list[str]:
    """The names of the first ``width`` columns of the pins at ``paths``."""
    known = FIELDS if any(path.name == PIN.name for path in paths) else ()
    return [known[i] if i < len(known) else str(i) for i in range(width)]


def moved_columns(old: dict, new: dict) -> dict[int, list[str]]:
    """Column index -> the ids of the cases whose value there differs."""
    moved: dict[int, list[str]] = {}
    for case, before in old.items():
        pairs = zip_longest(before, new[case], fillvalue=_MISSING)
        for i, (a, b) in enumerate(pairs):
            if a != b:
                moved.setdefault(i, []).append(case)
    return moved


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument(
        "--allow", default="", help="comma-separated columns that may move"
    )
    args = parser.parse_args(argv)
    old = json.loads(args.old.read_text())
    new = json.loads(args.new.read_text())
    if list(old) != list(new):
        only_old = [case for case in old if case not in new]
        only_new = [case for case in new if case not in old]
        print(
            f"case ids differ: {len(only_old)} only in OLD {only_old[:3]}, "
            f"{len(only_new)} only in NEW {only_new[:3]}"
            + ("" if only_old or only_new else "; same ids, another order")
        )
        return 2
    width = max((len(row) for pin in (old, new) for row in pin.values()), default=0)
    names = column_names((args.old, args.new), width)
    allowed = {name for name in args.allow.split(",") if name}
    moved = moved_columns(old, new)
    print(f"{len(old)} cases, same ids in the same order")
    refused = False
    for i, name in enumerate(names):
        cases = moved.get(i, [])
        ok = not cases or name in allowed or str(i) in allowed
        note = "" if ok else "  NOT ALLOWED"
        first = f"  {', '.join(cases[:3])}" if cases else ""
        print(f"{name}: {len(cases)} moved{first}{note}")
        refused = refused or not ok
    return 1 if refused else 0


if __name__ == "__main__":
    sys.exit(main())
