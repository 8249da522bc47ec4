"""asyncio transport: run the *same* protocol generators in real time.

The protocols in :mod:`repro.core` and :mod:`repro.fallback` are written
against the generator-context interface (send / broadcast / yield-per-
round / message pool).  This package drives those unmodified generators
over asyncio: every process is a task, a round is a wall-clock interval
(``tick_duration`` seconds = the synchrony bound ``delta``), and
messages travel through in-memory queues with optional artificial
latency (must stay below ``delta``, per the synchronous model).

This demonstrates transport-independence: the simulator of
:mod:`repro.runtime` and this runner execute identical protocol code
against the same context type, and both return a
:class:`~repro.runtime.result.RunResult`.
"""

from repro.asyncnet.runner import AsyncNetwork, run_async
from repro.asyncnet.tcp import run_over_tcp

__all__ = ["AsyncNetwork", "run_async", "run_over_tcp"]
