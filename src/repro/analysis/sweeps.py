"""Parameter sweeps: run a protocol across ``(n, f)`` grids and record
the paper's complexity measures for each run.

Every sweep returns a list of :class:`SweepPoint` — the raw material for
the benchmark tables and the slope fits.  Sweeps are deterministic given
their seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from repro.adversary.strategies import AdversaryStrategy, SilentStrategy
from repro.config import ProcessId, RunParameters, SystemConfig
from repro.protocols.table import get_protocol, run_protocol, string_validity
from repro.runtime.result import RunResult
from repro.runtime.synchrony import SynchronyModel, parse_synchrony


@dataclass(frozen=True)
class SweepPoint:
    """One run's complexity measurements."""

    protocol: str
    n: int
    t: int
    f: int
    seed: int
    words: int
    messages: int
    signatures: int
    ticks: int
    fallback_used: bool
    non_silent_phases: int
    decision: Any

    @property
    def words_per_nf(self) -> float:
        """``words / (n * (f + 1))`` — flat iff the adaptive bound is tight."""
        return self.words / (self.n * (self.f + 1))

    @property
    def words_per_n2(self) -> float:
        """``words / n^2`` — flat iff the run is quadratic."""
        return self.words / (self.n**2)


def _measure(
    protocol: str, result: RunResult, seed: int, n: int, t: int
) -> SweepPoint:
    non_silent = result.trace.count("phase_non_silent") + result.trace.count(
        "bb_phase_non_silent"
    )
    try:
        decision = result.unanimous_decision()
    except Exception:  # benchmarks still want the point; tests assert separately
        decision = None
    return SweepPoint(
        protocol=protocol,
        n=n,
        t=t,
        f=result.f,
        seed=seed,
        words=result.correct_words,
        messages=result.ledger.correct_messages,
        signatures=result.ledger.signature_count(),
        ticks=result.ticks,
        fallback_used=result.fallback_was_used(),
        non_silent_phases=non_silent,
        decision=decision,
    )


def _default_grid(
    ns: Sequence[int], fs: Callable[[SystemConfig], Iterable[int]] | None
) -> list[tuple[SystemConfig, int]]:
    grid: list[tuple[SystemConfig, int]] = []
    for n in ns:
        config = SystemConfig.with_optimal_resilience(n)
        failure_counts = (
            list(fs(config)) if fs is not None else list(range(config.t + 1))
        )
        for f in failure_counts:
            grid.append((config, f))
    return grid


def sweep(
    protocol: str,
    ns: Sequence[int],
    *,
    fs: Callable[[SystemConfig], Iterable[int]] | None = None,
    strategy: AdversaryStrategy | None = None,
    seeds: Sequence[int] = (0,),
    value: object = None,
    synchrony: SynchronyModel | None = None,
) -> list[SweepPoint]:
    """Run table entry ``protocol`` (canonical name or CLI spelling)
    over the ``(n, f)`` grid.

    Every correct process proposes ``value`` (a callable ``pid ->
    input`` varies it; default: the entry's ``proposal``).  The default
    adversary silences ``f`` processes, never the entry's sender or
    leader.
    """
    entry = get_protocol(protocol)
    strategy = strategy or SilentStrategy(avoid=entry.shielded)
    proposal = entry.proposal if value is None else value
    points = []
    for config, f in _default_grid(ns, fs):
        metas = entry.metas(config.processes, proposal)
        for seed in seeds:
            plan = strategy.plan(config, f, seed)
            # Reseed the timing model per grid point so seeded
            # sub-schedules (pre-GST delays, link latencies, drift)
            # vary with the sweep seed.
            model = synchrony.reseeded(seed) if synchrony is not None else None
            result = run_protocol(
                entry.name, config, metas, seed=seed,
                byzantine=plan.initial, scheduled=plan.scheduled,
                params=RunParameters(max_ticks=200_000, synchrony=model),
                validity=string_validity,
            )
            points.append(_measure(entry.name, result, seed, config.n, config.t))
    return points


def _sweep_task(args: tuple[str, int, int, int, str | None]) -> SweepPoint:
    """Run one grid point of a sweep (worker entry point).

    Module-level so multiprocessing can pickle it; the default
    adversary strategy — and the synchrony model, shipped as its CLI
    spec string — are rebuilt inside the worker.  One point per task
    keeps shards balanced — large-``n`` runs dominate, and a per-``n``
    split would leave workers idle behind the biggest one.
    """
    protocol, n, f, seed, spec = args
    model = parse_synchrony(spec) if spec is not None else None
    (point,) = sweep(
        protocol, [n], fs=lambda _config: [f], seeds=[seed], synchrony=model
    )
    return point


def sweep_parallel(
    protocol: str,
    ns: Sequence[int],
    *,
    fs: Callable[[SystemConfig], Iterable[int]] | None = None,
    seeds: Sequence[int] = (0,),
    jobs: int = 1,
    synchrony: str | None = None,
) -> list[SweepPoint]:
    """:func:`sweep` with its grid points fanned out over ``jobs``
    worker processes.  ``synchrony`` is a :func:`parse_synchrony` spec
    string (specs pickle across workers; model objects need not).

    Points come back in the same (n, f, seed) order as the serial sweep
    produces, and each point's run is bit-identical to its serial
    counterpart (every run is seeded and self-contained — the processes
    share nothing).  Only the default adversary strategy and proposal
    are supported here; custom ones stay on the serial API.
    """
    name = get_protocol(protocol).name  # fail fast, before any worker spawns
    if synchrony is not None:
        parse_synchrony(synchrony)
    from repro.runtime.pool import parallel_map

    tasks = [
        (name, config.n, f, seed, synchrony)
        for config, f in _default_grid(ns, fs)
        for seed in seeds
    ]
    return parallel_map(_sweep_task, tasks, jobs)


def sweep_byzantine_broadcast(
    ns: Sequence[int],
    *,
    fs: Callable[[SystemConfig], Iterable[int]] | None = None,
    strategy: AdversaryStrategy | None = None,
    seeds: Sequence[int] = (0,),
    value: object = "payload",
    synchrony: SynchronyModel | None = None,
) -> list[SweepPoint]:
    """Run adaptive BB over the grid; the sender (process 0) stays correct."""
    return sweep("bb", ns, fs=fs, strategy=strategy, seeds=seeds,
                 value=value, synchrony=synchrony)


def sweep_weak_ba(
    ns: Sequence[int],
    *,
    fs: Callable[[SystemConfig], Iterable[int]] | None = None,
    strategy: AdversaryStrategy | None = None,
    seeds: Sequence[int] = (0,),
    value: object = "proposal",
    synchrony: SynchronyModel | None = None,
) -> list[SweepPoint]:
    """Run weak BA (all correct processes propose ``value``)."""
    return sweep("weak_ba", ns, fs=fs, strategy=strategy, seeds=seeds,
                 value=value, synchrony=synchrony)


def sweep_strong_ba(
    ns: Sequence[int],
    *,
    fs: Callable[[SystemConfig], Iterable[int]] | None = None,
    strategy: AdversaryStrategy | None = None,
    seeds: Sequence[int] = (0,),
    inputs: Callable[[ProcessId], int] = lambda pid: 1,
    synchrony: SynchronyModel | None = None,
) -> list[SweepPoint]:
    """Run Algorithm 5 (binary strong BA); the leader stays correct."""
    return sweep("strong_ba", ns, fs=fs, strategy=strategy, seeds=seeds,
                 value=inputs, synchrony=synchrony)


def sweep_fallback_ba(
    ns: Sequence[int],
    *,
    fs: Callable[[SystemConfig], Iterable[int]] | None = None,
    strategy: AdversaryStrategy | None = None,
    seeds: Sequence[int] = (0,),
    value: object = "v",
    synchrony: SynchronyModel | None = None,
) -> list[SweepPoint]:
    """Run the quadratic ``Afallback`` directly (the Momose–Ren row)."""
    return sweep("recursive_ba", ns, fs=fs, strategy=strategy, seeds=seeds,
                 value=value, synchrony=synchrony)


def sweep_dolev_strong(
    ns: Sequence[int],
    *,
    fs: Callable[[SystemConfig], Iterable[int]] | None = None,
    strategy: AdversaryStrategy | None = None,
    seeds: Sequence[int] = (0,),
    value: object = "payload",
    synchrony: SynchronyModel | None = None,
) -> list[SweepPoint]:
    """Run the Dolev–Strong baseline (sender 0 stays correct)."""
    return sweep("dolev_strong", ns, fs=fs, strategy=strategy, seeds=seeds,
                 value=value, synchrony=synchrony)
