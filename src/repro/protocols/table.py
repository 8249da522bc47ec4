"""The protocol table and the one simulator driver.

One decision lives here: *protocol name + WAL-serialisable meta ->
``factory(ctx)``*.  Each :class:`Protocol` row points at the
``build(meta)`` written once, beside the generator it builds; the live
run (:func:`run_protocol`), offline WAL replay
(:func:`repro.recovery.replay.factory_from_meta`), the sweeps, the CLI
and the soak worker all call it, so a WAL any driver writes replays.

A *meta* is a flat dict of plain values (``input``, ``sender``,
``num_slots`` ...), one per correct process.  What cannot be
serialised — weak BA's validity predicate — rides alongside as a
keyword *code argument*; builders ignore the ones they do not take and
default the rest to what offline replay uses (``docs/recovery.md``).

Beside the table sits :data:`BACKENDS`, one :class:`Backend` row per
paper's protocol stack: which table rows are its strong BAs and what it
promises (envelopes, capability facts).  Its drivers and factories are
derived from those rows, so adding a backend is generators with their
``build``, then table rows and one ``BACKENDS`` row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping

from repro.apps import clients, pipelined, smr
from repro.config import ProcessId, RunParameters, SystemConfig
from repro.core import adaptive_strong_ba, byzantine_broadcast, strong_ba, weak_ba
from repro.core.validity import ExternalValidity
from repro.errors import ConfigurationError
from repro.fallback import dolev_strong, phase_king, recursive_ba
from repro.protocols.civit import core as civit


@dataclass(frozen=True)
class Protocol:
    """One row of the table."""

    name: str
    """Canonical name: what runs stamp into their WALs."""
    build: Callable[..., Callable]
    """``build(meta, **code) -> factory``; ``factory(ctx)`` is a correct
    process's generator."""
    cli: str | None = None
    """``repro run`` / ``repro sweep`` spelling; ``None`` = library only."""
    roles: Mapping[str, ProcessId] = field(default_factory=dict)
    """Meta keys naming a distinguished pid (BB's sender, Algorithm 5's
    leader).  Generic callers stamp them into every meta and their
    default adversaries never corrupt those pids."""
    binary: bool = False
    """Inputs are bits."""
    proposal: object = None
    """What every correct process proposes in a sweep that names no
    value; ``None`` for the replicated logs, whose input is a command
    queue rather than one value."""

    @property
    def shielded(self) -> frozenset[ProcessId]:
        return frozenset(self.roles.values())

    def metas(
        self, pids: Iterable[ProcessId], proposal: object
    ) -> dict[ProcessId, dict]:
        """One meta per pid for a single-value run: ``proposal`` is the
        common input, or a callable ``pid -> input``."""
        value_of = proposal if callable(proposal) else lambda pid: proposal
        return {pid: {**self.roles, "input": value_of(pid)} for pid in pids}


PROTOCOLS: dict[str, Protocol] = {
    entry.name: entry
    for entry in (
        Protocol("bb", byzantine_broadcast.build, cli="bb",
                 roles={"sender": 0}, proposal="payload"),
        Protocol("weak_ba", weak_ba.build, cli="weak-ba", proposal="proposal"),
        Protocol("strong_ba", strong_ba.build, cli="strong-ba",
                 roles={"leader": 0}, binary=True, proposal=1),
        Protocol("adaptive_strong_ba", adaptive_strong_ba.build,
                 cli="adaptive-strong-ba", proposal="v"),
        Protocol("civit_strong_ba", civit.build_strong_ba,
                 cli="civit-strong-ba", binary=True, proposal=1),
        Protocol("civit_adaptive_strong_ba", civit.build_adaptive_strong_ba,
                 cli="civit-adaptive-strong-ba", proposal="v"),
        Protocol("recursive_ba", recursive_ba.build, cli="fallback",
                 proposal="v"),
        Protocol("dolev_strong", dolev_strong.build, cli="dolev-strong",
                 roles={"sender": 0}, proposal="payload"),
        Protocol("phase_king", phase_king.build, binary=True, proposal=1),
        Protocol("smr", smr.build),
        Protocol("batched_smr", clients.build),
        Protocol("pipelined_smr", pipelined.build),
    )
}


def get_protocol(name: str) -> Protocol:
    """Look an entry up by its canonical name or its CLI spelling."""
    for entry in PROTOCOLS.values():
        if name in (entry.name, entry.cli):
            return entry
    raise ConfigurationError(
        f"unknown protocol {name!r}; known: {sorted(PROTOCOLS)}"
    )


def string_validity(suite: Any = None, config: Any = None) -> ExternalValidity:
    """The ``validity`` code argument of callers whose proposals are
    all strings (CLI, sweeps, soak); needs neither argument."""
    return ExternalValidity(lambda value: isinstance(value, str))


def run_protocol(
    name: str,
    config: SystemConfig,
    metas: Mapping[ProcessId, dict],
    *,
    seed: int = 0,
    byzantine: Mapping[ProcessId, Any] | None = None,
    scheduled: Iterable[tuple[int, ProcessId, Any]] = (),
    params: RunParameters | None = None,
    **code: Callable[[Any, SystemConfig], Any],
):
    """Run table entry ``name`` over the tick simulator.

    ``metas[pid]`` is the meta of every correct ``pid`` (plus
    ``params.num_phases`` when set); it is stamped into the pid's WAL
    and handed to the entry's ``build`` — the call offline replay
    repeats.  ``byzantine`` maps corrupted pids to behaviors,
    ``scheduled`` lists mid-run ``(tick, pid, behavior)`` corruptions.
    Each code argument is given as ``make(suite, config)`` and built
    once per run, because it usually needs the deployment's crypto
    suite.  Returns the :class:`~repro.runtime.result.RunResult`.

    ``seed`` seeds the run; a non-zero ``params.seed`` must equal it.
    """
    from repro.runtime.scheduler import Simulation

    build = PROTOCOLS[name].build
    byzantine = byzantine or {}
    params = params or RunParameters()
    if params.seed != 0 and params.seed != seed:
        raise ConfigurationError(
            f"params.seed={params.seed} differs from seed={seed}; the run "
            f"is seeded from seed=, so pass the same value to both"
        )
    simulation = Simulation(
        config, seed=seed, max_ticks=params.max_ticks,
        fault_plan=params.fault_plan, observer=params.observer,
        recovery=params.recovery,
        synchrony=params.synchrony,
    )
    built = {key: make(simulation.suite, config) for key, make in code.items()}
    if params.recovery is not None:
        params.recovery.describe(protocol=name)
    for pid in config.processes:
        if pid in byzantine:
            simulation.add_byzantine(pid, byzantine[pid])
        else:
            meta = metas[pid]
            if params.num_phases is not None:
                meta = {"num_phases": params.num_phases, **meta}
            if params.recovery is not None:
                params.recovery.describe_process(pid, **meta)
            simulation.add_process(pid, build(meta, **built))
    for tick, pid, behavior in scheduled:
        simulation.schedule_corruption(tick, pid, behavior)
    return simulation.run()


@dataclass(frozen=True)
class Backend:
    """One paper's protocol stack: the table rows it runs and the facts
    the shared tests and the perf ledger hold it to."""

    name: str
    strong_ba_row: str
    """Table row of the binary strong BA; also the model checker's
    scenario for it (:func:`repro.mc.scenario.make_scenario`)."""
    adaptive_strong_ba_row: str
    """Table row of the multivalued adaptive strong BA."""
    strong_ba_tick_bound: Callable[[SystemConfig], int]
    """Upper bound on failure-free strong-BA ticks for ``config``."""
    strong_ba_word_budget: Callable[[SystemConfig, int], float]
    """``budget(config, f)``: the strong BA's word envelope with ``f``
    silent faults (conformance sweeps assert ``correct_words <=
    budget``)."""
    silent_leader_forces_fallback: bool
    """Does silencing p0 push the strong BA into its quadratic fallback?
    True for Algorithm 5's fixed leader."""
    strong_ba_degrades_quadratically: bool
    """Does one silent process push the strong-BA bill into the
    quadratic regime?  The headline differential between the stacks
    (``benchmarks/bench_backend_adaptivity.py``)."""

    run_weak_ba = staticmethod(weak_ba.run_weak_ba)
    """Every stack builds on the one weak BA of Algorithm 3."""
    asba_non_silent_event = "asba_phase_non_silent"
    """Trace event of a non-silent certificate phase of the adaptive
    strong BA (:mod:`repro.core.adaptive_strong_ba`, which every stack
    that certifies inputs builds)."""
    asba_certified_event = "asba_certified"
    """Trace event of a process adopting an input certificate."""

    def run_strong_ba(
        self, config: SystemConfig, inputs: Mapping[ProcessId, Any], **run
    ):
        """``inputs`` maps each correct pid to its bit; ``run`` takes
        :func:`run_protocol`'s keywords."""
        metas = {pid: {"input": value} for pid, value in inputs.items()}
        return run_protocol(self.strong_ba_row, config, metas, **run)

    def run_adaptive_strong_ba(
        self, config: SystemConfig, inputs: Mapping[ProcessId, Any], **run
    ):
        metas = {pid: {"input": value} for pid, value in inputs.items()}
        return run_protocol(self.adaptive_strong_ba_row, config, metas, **run)

    def strong_ba_protocol(self, ctx: Any, value: object):
        """A correct process's strong-BA generator, for hosts that own
        the event loop."""
        row = PROTOCOLS[self.strong_ba_row]
        return row.build({**row.roles, "input": value})(ctx)


BACKENDS: dict[str, Backend] = {
    backend.name: backend
    for backend in (
        Backend("cohen", "strong_ba", "adaptive_strong_ba",
                strong_ba.tick_bound, strong_ba.word_budget,
                silent_leader_forces_fallback=True,
                strong_ba_degrades_quadratically=True),
        Backend("civit", "civit_strong_ba", "civit_adaptive_strong_ba",
                civit.strong_ba_tick_bound, civit.strong_ba_word_budget,
                silent_leader_forces_fallback=False,
                strong_ba_degrades_quadratically=False),
    )
}


def backend_names() -> tuple[str, ...]:
    return tuple(sorted(BACKENDS))


def all_backends() -> tuple[Backend, ...]:
    return tuple(BACKENDS[name] for name in backend_names())


def get_backend(name: str) -> Backend:
    backend = BACKENDS.get(name)
    if backend is None:
        raise ConfigurationError(
            f"unknown backend {name!r} (known: {list(backend_names())})"
        )
    return backend
