"""``tests/pins/diff.py`` on tiny synthetic pins: per-column counts,
column names, ``--allow`` and the exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

from tests.pins import diff


def _pin(path: Path, rows: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"{json.dumps(case)}: {json.dumps(row)}" for case, row in rows.items()]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return path


OLD = {
    "a/5/0": ["t0", 10, 20],
    "b/5/0": ["t1", 11, 21],
    "c/5/0": ["t2", 12, 22, "w2"],
    "d/5/0": ["t3", 13, 23, "w3"],
}


def _moved(tmp_path, name, changes):
    new = {case: list(row) for case, row in OLD.items()}
    for case, column, value in changes:
        new[case][column] = value
    return _pin(tmp_path / "old" / name, OLD), _pin(tmp_path / "new" / name, new)


def test_counts_each_column_and_names_sparse_pin_columns(tmp_path, capsys):
    old, new = _moved(tmp_path, "sparse_time.json", [
        ("a/5/0", 0, "x"), ("b/5/0", 0, "x"), ("c/5/0", 0, "x"),
        ("d/5/0", 0, "x"), ("d/5/0", 3, "x"),
    ])
    assert diff.main([str(old), str(new), "--allow", "trace,ticks"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "4 cases, same ids in the same order",
        "trace: 4 moved  a/5/0, b/5/0, c/5/0",
        "words: 0 moved",
        "signatures: 0 moved",
        "ticks: 1 moved  d/5/0",
    ]


def test_a_column_outside_allow_fails(tmp_path, capsys):
    old, new = _moved(tmp_path, "sparse_time.json", [("b/5/0", 1, 99)])
    assert diff.main([str(old), str(new), "--allow", "trace"]) == 1
    assert "words: 1 moved  b/5/0  NOT ALLOWED" in capsys.readouterr().out
    assert diff.main([str(old), str(new)]) == 1
    assert diff.main([str(old), str(new), "--allow", "words"]) == 0


def test_other_pins_name_columns_by_position(tmp_path, capsys):
    old, new = _moved(tmp_path, "attacks.json", [("c/5/0", 3, "x")])
    assert diff.main([str(old), str(new), "--allow", "3"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1:] == ["0: 0 moved", "1: 0 moved", "2: 0 moved", "3: 1 moved  c/5/0"]


def test_a_row_that_changes_length_moves_the_missing_columns(tmp_path, capsys):
    new = dict(OLD, **{"a/5/0": ["t0", 10, 20, "w0"]})
    old = _pin(tmp_path / "old.json", OLD)
    assert diff.main([str(old), str(_pin(tmp_path / "new.json", new))]) == 1
    assert "3: 1 moved  a/5/0  NOT ALLOWED" in capsys.readouterr().out


def test_case_ids_and_their_order_must_match(tmp_path, capsys):
    old = _pin(tmp_path / "old.json", OLD)
    renamed = {("z/5/0" if case == "a/5/0" else case): row for case, row in OLD.items()}
    reordered = dict(reversed(list(OLD.items())))
    assert diff.main([str(old), str(_pin(tmp_path / "renamed.json", renamed))]) == 2
    assert diff.main([str(old), str(_pin(tmp_path / "reordered.json", reordered))]) == 2
    out = capsys.readouterr().out
    assert "1 only in OLD ['a/5/0'], 1 only in NEW ['z/5/0']" in out
    assert "same ids, another order" in out


def test_runs_as_a_script(tmp_path):
    old, new = _moved(tmp_path, "sparse_time.json", [("a/5/0", 0, "x")])
    script = Path(diff.__file__)
    env = dict(os.environ, PYTHONPATH=str(script.parents[2] / "src"))
    done = subprocess.run(
        [sys.executable, str(script), str(old), str(new)],
        capture_output=True, text=True, env=env,
    )
    assert done.returncode == 1, done.stderr
    assert "trace: 1 moved  a/5/0  NOT ALLOWED" in done.stdout
