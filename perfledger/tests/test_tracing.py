"""Path -> layer bucketing, builtin-to-caller attribution, shares."""

import importlib
import os
import sys
from types import SimpleNamespace

import pytest

import tracing

ROOT = os.path.join(os.sep, "x", "src", "repro")
LAYERS = ("crypto", "runtime", "asyncnet")


def code(path, name="f"):
    return SimpleNamespace(co_filename=path, co_name=name)


def entry(where, inline, calls=(), callcount=1, reccallcount=0, total=None):
    return SimpleNamespace(
        code=where, callcount=callcount, reccallcount=reccallcount,
        inlinetime=inline, totaltime=inline if total is None else total,
        calls=list(calls),
    )


@pytest.mark.parametrize(
    "path, layer",
    [
        (f"{ROOT}/crypto/field.py", "crypto"),
        (f"{ROOT}/runtime/scheduler.py", "runtime"),
        (f"{ROOT}/config.py", tracing.REPRO_OTHER),
        (f"{ROOT}/analysis/sweeps.py", tracing.REPRO_OTHER),
        ("/usr/lib/python3.11/asyncio/base_events.py", tracing.PYTHON_OTHER),
        ("/x/src/repro_extras/crypto/field.py", tracing.PYTHON_OTHER),
        ("/x/perfledger/adapters.py", tracing.PYTHON_OTHER),
    ],
)
def test_layer_of(path, layer):
    assert tracing.layer_of(path, ROOT, LAYERS) == layer


def test_builtin_time_goes_to_its_immediate_caller():
    pow_ = "<built-in method builtins.pow>"
    poll = "<method 'poll' of 'select.epoll' objects>"
    entries = [
        entry(code(f"{ROOT}/crypto/field.py", "inv"), 1.0,
              calls=[entry(pow_, 3.0, callcount=7)]),
        entry(code(f"{ROOT}/runtime/scheduler.py", "run"), 2.0,
              calls=[entry(pow_, 0.5), entry(code(f"{ROOT}/crypto/field.py"), 9.9)]),
        entry(code("/usr/lib/python3.11/selectors.py", "select"), 0.25,
              calls=[entry(poll, 10.0)]),
        entry(pow_, 3.5, callcount=8),
        entry(poll, 10.0),
        entry("<method 'disable' of '_lsprof.Profiler' objects>", 0.125),
    ]
    spans, _ = tracing.bucket(entries, ROOT, LAYERS, {})
    assert spans["crypto"] == [4.0, 8]  # 1.0 own + 3.0 of pow, 1 + 7 calls
    assert spans["runtime"][0] == 2.5  # Python callees are not re-charged
    assert spans[tracing.IDLE][0] == 10.0  # the poll, whoever called it
    assert spans[tracing.PYTHON_OTHER][0] == 0.25 + 0.125  # callerless builtin
    total = sum(self_s for self_s, _ in spans.values())
    assert total == sum(e.inlinetime for e in entries)


def test_watched_functions_count_primitive_calls():
    watched = {"crypto.encode_calls": ("crypto/canonical.py", "encode")}
    entries = [
        entry(code(f"{ROOT}/crypto/canonical.py", "encode"), 0.5,
              callcount=10, reccallcount=6, total=0.75),
        entry(code(f"{ROOT}/crypto/canonical.py", "other"), 0.5, callcount=3),
    ]
    _, calls = tracing.bucket(entries, ROOT, LAYERS, watched)
    assert calls == {"crypto.encode_calls": [4, 0.75]}


def test_real_profile_charges_pow_to_the_calling_layer(tmp_path):
    """End to end through cProfile: a function under <root>/crypto/ that
    spends its time in the builtin ``pow`` is all crypto time, and the
    children of the op span sum to the span."""
    package = tmp_path / "fakerepro"
    (package / "crypto").mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "crypto" / "__init__.py").write_text("")
    (package / "crypto" / "field.py").write_text(
        "def invert_many(n, p=2**255 - 19):\n"
        "    return [pow(a, -1, p) for a in range(2, n)]\n"
    )
    sys.path.insert(0, str(tmp_path))
    try:
        module = importlib.import_module("fakerepro.crypto.field")
        tracer = tracing.OpTracer(
            str(package), ("crypto",),
            {"crypto.invert": ("crypto/field.py", "invert_many")},
        )
        result, span = tracer.trace(lambda: module.invert_many(20_000))
    finally:
        sys.path.remove(str(tmp_path))
        sys.modules.pop("fakerepro.crypto.field", None)
    assert len(result) == 19_998
    children = {c["layer"]: c for c in span["children"]}
    assert set(children) == {"crypto", tracing.REPRO_OTHER, tracing.PYTHON_OTHER,
                             tracing.IDLE}
    total = sum(c["self_s"] for c in children.values())
    assert total == pytest.approx(span["end"] - span["start"])
    assert children["crypto"]["self_s"] / total > 0.8
    assert children["crypto"]["calls"] >= 19_998  # the pow calls are counted
    assert span["watched"]["crypto.invert"]["calls"] == 1
