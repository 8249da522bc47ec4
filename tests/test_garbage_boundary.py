"""Malformed wire input is rejected in one place: ``repro.crypto``.

The verifiers and the share collector return ``False`` on garbage and
never raise, so protocol code calls them directly.  A catch-all handler
in a protocol package would be a second copy of that rule (and would
hide real bugs).  The one exception is :class:`ExternalValidity`, which
runs a predicate the caller supplies.
"""

import ast
from pathlib import Path

import repro

PACKAGES = ("core", "fallback", "protocols")
CATCH_ALL = frozenset({"Exception", "BaseException"})
ALLOWED = {("core/validity.py", "ExternalValidity.validate")}


def _names(node):
    if node is None:
        return {"<bare>"}
    if isinstance(node, ast.Tuple):
        return set().union(*map(_names, node.elts))
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    return set()


def _catch_alls(path):
    """``(line, enclosing Class.function)`` of every catch-all handler."""
    found = []

    def walk(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, f"{where}.{child.name}" if where else child.name)
                continue
            if isinstance(child, ast.ExceptHandler) and (
                _names(child.type) & (CATCH_ALL | {"<bare>"})
            ):
                found.append((child.lineno, where))
            walk(child, where)

    walk(ast.parse(path.read_text(), str(path)), "")
    return found


def test_no_catch_all_handlers_in_protocol_code():
    root = Path(repro.__file__).parent
    offenders = []
    for package in PACKAGES:
        for path in sorted((root / package).rglob("*.py")):
            relative = path.relative_to(root).as_posix()
            for line, where in _catch_alls(path):
                if (relative, where) not in ALLOWED:
                    offenders.append(f"src/repro/{relative}:{line} in {where}")
    assert not offenders, (
        "catch-all exception handlers in protocol code (let the crypto "
        "verifiers reject garbage instead):\n  " + "\n  ".join(offenders)
    )


def test_the_checker_sees_every_spelling(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "class C:\n"
        "    def f(self):\n"
        "        try:\n"
        "            pass\n"
        "        except:\n"
        "            pass\n"
        "        try:\n"
        "            pass\n"
        "        except (KeyError, Exception):\n"
        "            pass\n"
        "        try:\n"
        "            pass\n"
        "        except builtins.BaseException:\n"
        "            pass\n"
        "        try:\n"
        "            pass\n"
        "        except TypeError:\n"
        "            pass\n"
    )
    assert _catch_alls(source) == [(5, "C.f"), (9, "C.f"), (13, "C.f")]
