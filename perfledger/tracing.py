"""The traced pass: a ``cProfile`` session per op, bucketed into layers.

The program is measured from outside.  Around each op a profiler scoped
to that op records every function's self time; :func:`bucket` folds
those into one child span per layer by source path:

* a Python function under ``<package_root>/<layer>/`` belongs to that
  layer when ``<layer>`` is one of ``layers``, any other module of the
  package to ``repro.other``, everything else (the standard library,
  this benchmark) to ``python.other``;
* a C/builtin function (``pow``, ``hashlib``, ``pickle``, ``os.fsync``)
  has no source path: its time goes to the layer of its immediate
  caller, call by call;
* the event loop's poll (and ``time.sleep``) is waiting, not work, and
  goes to ``idle.wait`` whoever called it;
* what the op's wall clock saw beyond the profiler's total — the
  profiler's own bookkeeping between calls — goes to ``python.other``,
  so the child spans of an op sum to the op span.

``cProfile`` charges a fixed cost per call and none inside native code,
so shares lean toward call-heavy Python; they locate time, they do not
price it.  End-to-end numbers never come from a traced pass.
"""

from __future__ import annotations

import cProfile
import os
import time
from typing import Callable, Iterable

IDLE = "idle.wait"
REPRO_OTHER = "repro.other"
PYTHON_OTHER = "python.other"

_IDLE_BUILTINS = ("select.epoll", "select.poll", "select.select", "time.sleep")


def layer_of(path: str, package_root: str, layers: Iterable[str]) -> str:
    """The bucket of a Python source file."""
    root = package_root.rstrip(os.sep) + os.sep
    if not path.startswith(root):
        return PYTHON_OTHER
    head = path[len(root):].split(os.sep, 1)[0]
    return head if head in layers else REPRO_OTHER


def bucket_names(layers: Iterable[str]) -> list[str]:
    """Every bucket a span can have, in reporting order."""
    return [*layers, REPRO_OTHER, PYTHON_OTHER, IDLE]


def _is_idle(builtin: str) -> bool:
    return any(name in builtin for name in _IDLE_BUILTINS)


def bucket(entries, package_root: str, layers, watched: dict[str, tuple[str, str]]):
    """Fold ``cProfile.Profile.getstats()`` entries into layer spans.

    Returns ``(spans, calls)``: ``spans[layer] = [self_s, calls]`` and
    ``calls[name] = [primitive calls, cumulative s]`` for every function
    in ``watched`` (``name -> (path below package_root, function)``).
    """
    layers = tuple(layers)
    spans = {name: [0.0, 0] for name in bucket_names(layers)}
    wanted = {
        (os.path.join(package_root, *tail.split("/")), function): name
        for name, (tail, function) in watched.items()
    }
    calls = {name: [0, 0.0] for name in watched}
    builtin_total: dict[str, float] = {}
    builtin_placed: dict[str, float] = {}
    for entry in entries:
        code = entry.code
        if isinstance(code, str):
            builtin_total[code] = builtin_total.get(code, 0.0) + entry.inlinetime
            continue
        layer = layer_of(code.co_filename, package_root, layers)
        spans[layer][0] += entry.inlinetime
        spans[layer][1] += entry.callcount
        name = wanted.get((code.co_filename, code.co_name))
        if name is not None:
            calls[name][0] += entry.callcount - entry.reccallcount
            calls[name][1] += entry.totaltime
        for sub in entry.calls or ():
            if isinstance(sub.code, str):
                target = IDLE if _is_idle(sub.code) else layer
                spans[target][0] += sub.inlinetime
                spans[target][1] += sub.callcount
                builtin_placed[sub.code] = (
                    builtin_placed.get(sub.code, 0.0) + sub.inlinetime
                )
    # A builtin called with no Python frame above it inside the session
    # (the profiler's own ``disable``) has no caller to be charged to.
    for code, total in builtin_total.items():
        spans[PYTHON_OTHER][0] += total - builtin_placed.get(code, 0.0)
    return spans, calls


class OpTracer:
    """Runs callables under a profiler scoped to one op each."""

    def __init__(self, package_root: str, layers, watched) -> None:
        self.package_root = package_root
        self.layers = tuple(layers)
        self.watched = dict(watched)

    def trace(self, run: Callable[[], object]):
        """``(result, span)``: the op's result and its span with child
        spans per layer.  Exceptions from ``run`` propagate after the
        profiler is off."""
        profiler = cProfile.Profile()
        start = time.perf_counter()
        profiler.enable()
        try:
            result = run()
        finally:
            profiler.disable()
            end = time.perf_counter()
        spans, calls = bucket(
            profiler.getstats(), self.package_root, self.layers, self.watched
        )
        profiled = sum(self_s for self_s, _ in spans.values())
        spans[PYTHON_OTHER][0] += max(0.0, (end - start) - profiled)
        span = {
            "start": start,
            "end": end,
            "children": [
                {"layer": name, "self_s": self_s, "calls": count}
                for name, (self_s, count) in spans.items()
            ],
            "watched": {
                name: {"calls": count, "cum_s": cum} for name, (count, cum) in calls.items()
            },
        }
        return result, span
