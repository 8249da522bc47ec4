"""Compare two result documents: ``python3 perfledger/compare.py A.json B.json``.

``A`` is the baseline, ``B`` the candidate.  Three tables:

1. one row per (workload, end-to-end metric): both values, how much
   worse ``B`` is as a share of ``A``, the metric's bound, and a verdict
   — ``ok``; ``worse`` (beyond the bound); or ``unresolved`` when the
   spread between the untraced runs of either document is wider than
   the bound, so the pair cannot tell;
2. per workload, the layer whose ``self_share`` moved most (in points of
   share) and the count that moved most (relative) — where to look;
3. exact-count metrics that differ.  These repeat bit for bit for a
   fixed seed, so between two runs of one commit any difference is a
   determinism bug, and between two commits it is a behaviour change a
   pure speed-up must not make.

Exit status: 1 if an exact count differs (at equal ``--seed``) or a
verdict is ``worse``; 0 otherwise.  ``unresolved`` does not fail the
comparison; it says more runs are needed.
"""

from __future__ import annotations

import json
import sys

TINY = 1e-12


def verdict(a: dict, b: dict) -> tuple[float, str]:
    """``(worse_by, verdict)`` for one end-to-end metric: ``worse_by`` is
    the share of ``a`` by which ``b`` is worse (negative: better)."""
    bound = a["bound"]
    if a["better"] == "higher":
        worse_by = (a["value"] - b["value"]) / max(abs(a["value"]), TINY)
    else:
        worse_by = (b["value"] - a["value"]) / max(abs(a["value"]), TINY)
    if bound == 0:  # an absolute floor (fail_ratio): any rise is worse
        return worse_by, "worse" if b["value"] > a["value"] else "ok"
    if max(a.get("spread", 0.0), b.get("spread", 0.0)) > bound:
        return worse_by, "unresolved"
    return worse_by, "worse" if worse_by > bound else "ok"


def end_to_end_rows(a: dict, b: dict) -> list[tuple]:
    rows = []
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            continue
        ours = a["workloads"][workload]["end_to_end"]
        theirs = b["workloads"][workload]["end_to_end"]
        for name in ours:
            if name in theirs:
                rows.append((workload, name, ours[name], theirs[name],
                             *verdict(ours[name], theirs[name])))
    return rows


def movers(a: dict, b: dict) -> list[tuple]:
    """Per workload: ``(workload, share name, points, count name, rel)``."""
    out = []
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            continue
        ours = a["workloads"][workload]["per_layer"]
        theirs = b["workloads"][workload]["per_layer"]
        share, count = ("-", 0.0), ("-", 0.0)
        for name in ours:
            if name not in theirs:
                continue
            before, after = ours[name]["value"], theirs[name]["value"]
            if name.endswith("_share"):
                moved = after - before
                if abs(moved) > abs(share[1]):
                    share = (name, moved)
            elif ours[name]["unit"] == "count":
                moved = (after - before) / max(abs(before), TINY)
                if abs(moved) > abs(count[1]):
                    count = (name, moved)
        out.append((workload, *share, *count))
    return out


def exact_differences(a: dict, b: dict) -> list[str]:
    out = []
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            continue
        ours = a["workloads"][workload]["per_layer"]
        theirs = b["workloads"][workload]["per_layer"]
        for name, metric in ours.items():
            other = theirs.get(name)
            if other and metric["exact"] and other["exact"]:
                if metric["value"] != other["value"]:
                    out.append(
                        f"{workload} {name}: {metric['value']!r} != {other['value']!r}"
                    )
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as handle:
        a = json.load(handle)
    with open(argv[1]) as handle:
        b = json.load(handle)
    for label, document in (("A", a), ("B", b)):
        env = document["environment"]
        print(
            f"{label}: rev {env['git_rev']} seed {document['seed']} "
            f"{document['seconds']} s/run, calib {env['calib_s_start']:.4f}"
            f" -> {env['calib_s_end']:.4f} s"
            + ("   NOISY: measured on an unsteady machine" if document["noisy"] else "")
        )

    rows = end_to_end_rows(a, b)
    print(f"\n{'workload':<13} {'metric':<22} {'A':>12} {'B':>12} {'worse by':>9}"
          f" {'bound':>6}  verdict")
    for workload, name, ours, theirs, worse_by, word in rows:
        print(
            f"{workload:<13} {name:<22} {ours['value']:>12.5g} {theirs['value']:>12.5g}"
            f" {worse_by:>+9.1%} {ours['bound']:>6.0%}  {word}"
            f"  [{ours['unit']}, n={ours['samples']}/{theirs['samples']}]"
        )

    print(f"\n{'workload':<13} {'share that moved most':<34} {'points':>8}   "
          f"{'count that moved most':<38} {'relative':>8}")
    for workload, share, points, count, relative in movers(a, b):
        print(f"{workload:<13} {share:<34} {100 * points:>+8.2f}   "
              f"{count:<38} {relative:>+8.1%}")

    differences = exact_differences(a, b)
    same_inputs = a["seed"] == b["seed"]
    print()
    if differences:
        print("exact counts differ" + ("" if same_inputs else
              " (the seeds differ too, so this is expected)") + ":")
        for line in differences:
            print(f"  {line}")
    else:
        print("exact counts: all equal")

    worse = [row for row in rows if row[5] == "worse"]
    unresolved = [row for row in rows if row[5] == "unresolved"]
    print(f"{len(rows) - len(worse) - len(unresolved)} ok, {len(worse)} worse, "
          f"{len(unresolved)} unresolved")
    return 1 if worse or (differences and same_inputs) else 0


if __name__ == "__main__":
    sys.exit(main())
