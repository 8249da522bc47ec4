"""Every call the benchmark makes into ``repro`` lives in this file.

Only the documented surface (``docs/api.md``) is used: ``Simulation`` +
``SilentStrategy``/``apply_strategy``, the ``*_protocol`` generators,
``get_backend``, ``explore_exhaustive``/``explore_random``/
``make_scenario``, ``run_pipelined_smr``, ``RecoveryManager``/
``replay_wal``/``load_history``, ``run_async``, ``derive_instance``/
``run_instance``/``SoakAuditor.submit`` and ``verify_run``/
``verify_under_plan``.  A change to that surface is a correction to this
one file.

Each op runs between two ``perf_counter`` reads that enclose the
program's work and nothing else; verification is deferred to
:attr:`Outcome.check`, which the caller invokes after the timer stopped.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field, replace
from typing import Callable

import repro
from repro.adversary.strategies import SilentStrategy, apply_strategy
from repro.apps import ClientWorkload, run_pipelined_smr
from repro.asyncnet import run_async
from repro.config import RunParameters, SystemConfig
from repro.core import byzantine_broadcast_protocol, weak_ba_protocol
from repro.core.validity import ExternalValidity
from repro.crypto import CryptoSuite, ThresholdScheme, encode
from repro.crypto import field as crypto_field
# Forgetting the dealt schemes makes a re-run of the same op seeds deal
# again, as the first run did (the traced pass repeats pass 1).
from repro.crypto.certificates import clear_caches as reset_dealt_schemes  # noqa: F401
from repro.errors import ReproError
from repro.fallback import fallback_ba
from repro.faults import FaultPlan, ProcessCrash
from repro.mc import explore_exhaustive, explore_random, make_scenario
from repro.metrics import WordLedger
from repro.obs import Observer
from repro.protocols import all_backends, get_backend
from repro.recovery import RecoveryManager, load_history, replay_wal
from repro.runtime import Simulation
from repro.soak import PROFILES, SoakAuditor, derive_instance, run_instance
from repro.soak.worker import TICK_ESCALATION
from repro.verify import (
    adaptive_word_budget,
    quadratic_word_budget,
    verify_run,
    verify_under_plan,
)

from workloads import Op

REPRO_ROOT = os.path.dirname(os.path.abspath(repro.__file__))

WATCHED_FUNCTIONS = {
    "crypto.partial_sign_calls": ("crypto/threshold.py", "partial_sign_digest"),
    "crypto.verify_partial_calls": ("crypto/threshold.py", "verify_partial_digest"),
    "crypto.combine_calls": ("crypto/threshold.py", "combine"),
    "crypto.verify_certificate_calls": ("crypto/certificates.py", "verify_certificate"),
    "crypto.lagrange_calls": ("crypto/field.py", "lagrange_coefficients_at_zero"),
    "crypto.encode_calls": ("crypto/canonical.py", "encode"),
    "crypto.deal_calls": ("crypto/threshold.py", "__init__"),
    "metrics.record_calls": ("metrics/words.py", "record"),
    "recovery.flush_calls": ("recovery/wal.py", "flush"),
    "soak.oracle": ("soak/worker.py", "_run_sim"),
}
"""Functions whose call count (and cumulative time) the traced pass
reports, as ``(path below src/repro/, function name)``.  The ``*_digest``
variants are the funnels every ``partial_sign``/``verify_partial`` call
goes through; ``threshold.py:__init__`` is the dealer."""

NON_SILENT_EVENTS = ("phase_non_silent", "bb_phase_non_silent") + tuple(
    sorted({backend.asba_non_silent_event for backend in all_backends()})
)


@dataclass
class Outcome:
    """What one op did, handed back once its timer has stopped."""

    elapsed_s: float
    units: int
    """Units attempted: decisions, schedules, commands or instances."""
    counts: dict[str, float] = field(default_factory=dict)
    """Exact per-op counts (words, messages, ticks ...): a fixed seed
    must reproduce them bit for bit."""
    facts: dict[str, float] = field(default_factory=dict)
    """Wall-clock dependent side measurements (replay ms, retries ...)."""
    check: Callable[[], tuple[int, list[str]]] = lambda: (0, [])
    """Deferred verification: ``(failed units, reasons)``."""


def _is_str(value: object) -> bool:
    return isinstance(value, str)


def _run_counts(result) -> dict[str, float]:
    """The exact counts every ``RunResult``-shaped outcome carries."""
    return {
        "words": result.correct_words,
        "messages": result.ledger.correct_messages,
        "signatures": result.ledger.signature_count(),
        "ticks": getattr(result, "ticks", 0),
        "non_silent_phases": sum(
            result.trace.count(name) for name in NON_SILENT_EVENTS
        ),
        "fallback_entered": int(result.fallback_was_used()),
    }


def _audit(result, report, units: int = 1) -> tuple[int, list[str]]:
    """Fold a verifier report and the unanimity check into a verdict."""
    reasons = [] if report.ok else [report.summary()]
    try:
        result.unanimous_decision()
    except ReproError as exc:
        reasons.append(f"not unanimous: {exc}")
    return (units if reasons else 0), reasons


class Session:
    """One child process's handle on the program: runs ops, owns the
    soak auditor and the scratch directory the WALs go to."""

    def __init__(self, scratch: str) -> None:
        self.scratch = scratch
        os.makedirs(scratch, exist_ok=True)
        self._auditor = SoakAuditor()
        self._soak_streams: dict[tuple, tuple[int, list]] = {}
        self._runners = {
            "weak_ba": self._weak_ba,
            "bb": self._bb,
            "civit_strong_ba": self._strong_ba,
            "cohen_strong_ba": self._strong_ba,
            "fallback_ba": self._fallback_ba,
            "mc_proof": self._mc,
            "mc_history": self._mc,
            "mc_civit": self._mc,
            "mc_random": self._mc,
            "smr": self._smr,
            "crash_recover": self._crash_recover,
            "soak_instance": self._soak_instance,
            "async_weak_ba": self._async_weak_ba,
        }

    def begin_pass(self, ops: list[Op]) -> None:
        """Reset per-pass state: the auditor wants contiguous indices,
        and the traced pass re-submits the indices of pass 1."""
        serials = [op.args["serial"] for op in ops if op.kind == "soak_instance"]
        self._auditor = SoakAuditor(start_index=min(serials, default=0))

    def run(self, op: Op) -> Outcome:
        return self._runners[op.kind](op)

    # ------------------------------------------------------------------
    # Tick simulator: one decision
    # ------------------------------------------------------------------

    @staticmethod
    def _simulate(op: Op, config, factory, *, avoid=frozenset(), budget=None,
                  check_lemma6=False) -> Outcome:
        """One decision: ``f`` silent processes (never those in ``avoid``),
        every correct process running ``factory(ctx)``."""
        start = time.perf_counter()
        plan = SilentStrategy(avoid=avoid).plan(config, op.args["f"], op.seed)
        simulation = Simulation(config, seed=op.seed, max_ticks=200_000)
        apply_strategy(simulation, plan, lambda pid: factory)
        result = simulation.run()
        elapsed = time.perf_counter() - start

        def check():
            report = verify_run(
                result,
                expected_decision=op.args["value"],
                word_budget=budget,
                check_lemma6=check_lemma6,
            )
            return _audit(result, report)

        return Outcome(elapsed, 1, _run_counts(result), check=check)

    def _weak_ba(self, op: Op) -> Outcome:
        validity = ExternalValidity(_is_str)
        value = op.args["value"]
        config = SystemConfig.with_optimal_resilience(op.args["n"])
        adaptive = op.args["f"] < config.fallback_failure_threshold
        return self._simulate(
            op,
            config,
            lambda ctx: weak_ba_protocol(ctx, value, validity),
            budget=adaptive_word_budget() if adaptive else quadratic_word_budget(),
            check_lemma6=True,
        )

    def _bb(self, op: Op) -> Outcome:
        value = op.args["value"]
        return self._simulate(
            op,
            SystemConfig.with_optimal_resilience(op.args["n"]),
            lambda ctx: byzantine_broadcast_protocol(ctx, 0, value),
            avoid=frozenset({0}),
            budget=adaptive_word_budget(),
        )

    def _strong_ba(self, op: Op) -> Outcome:
        backend = get_backend(op.kind.partition("_")[0])
        value = op.args["value"]
        config = SystemConfig.with_optimal_resilience(op.args["n"])
        ceiling = backend.strong_ba_word_budget(config, op.args["f"])
        # Algorithm 5's fixed leader p0 stays correct, as in the sweeps.
        avoid = frozenset({0}) if backend.silent_leader_forces_fallback else frozenset()
        return self._simulate(
            op,
            config,
            lambda ctx: backend.strong_ba_protocol(ctx, value),
            avoid=avoid,
            budget=lambda result: ceiling,
        )

    def _fallback_ba(self, op: Op) -> Outcome:
        value = op.args["value"]
        return self._simulate(
            op,
            SystemConfig.with_optimal_resilience(op.args["n"]),
            lambda ctx: fallback_ba(ctx, value),
            budget=quadratic_word_budget(),
        )

    # ------------------------------------------------------------------
    # Model checker: one exploration, counted in schedules
    # ------------------------------------------------------------------

    @staticmethod
    def _mc_outcome(op: Op, elapsed: float, cpu: float, result) -> Outcome:
        stats = result.stats
        must_complete = op.kind == "mc_proof"

        def check():
            if not result.ok:
                reasons = [c.summary for c in result.counterexamples[:3]]
                return max(stats.violations, 1), reasons
            if must_complete and not result.complete:
                return stats.runs, ["proof did not exhaust its space"]
            return 0, []

        return Outcome(
            elapsed,
            stats.runs,
            {
                "mc_runs": stats.runs,
                "mc_pruned": stats.pruned,
                "mc_distinct_states": stats.distinct_states,
                "mc_truncated": stats.truncated,
            },
            {"cpu_s": cpu},
            check,
        )

    def _mc(self, op: Op) -> Outcome:
        start, cpu = time.perf_counter(), time.process_time()
        scenario = make_scenario(op.args["scenario"], **op.args["params"])
        if op.kind == "mc_random":
            result = explore_random(
                scenario,
                runs=op.args["runs"],
                seed=op.args["walk_seed"],
                stop_at_first=False,
            )
        else:
            result = explore_exhaustive(
                scenario, max_runs=op.args["max_runs"], prune=op.args["prune"]
            )
        return self._mc_outcome(
            op, time.perf_counter() - start, time.process_time() - cpu, result
        )

    # ------------------------------------------------------------------
    # SMR with the WAL: one run, counted in committed commands
    # ------------------------------------------------------------------

    def _smr(self, op: Op) -> Outcome:
        shape = op.args["shape"]
        config = SystemConfig.with_optimal_resilience(shape["n"])
        clients = [
            ClientWorkload(
                client=c["client"],
                ops=tuple(tuple(o) for o in c["ops"]),
                replicas=tuple(c["replicas"]),
            )
            for c in op.args["clients"]
        ]
        fsync = op.args["fsync"]
        wal_dir = tempfile.mkdtemp(prefix="smr-", dir=self.scratch)
        try:
            start = time.perf_counter()
            recovery = RecoveryManager(wal_dir, fsync=fsync) if fsync else None
            result = run_pipelined_smr(
                config,
                clients,
                shape["num_slots"],
                window=shape["window"],
                batch_size=shape["batch_size"],
                seed=op.seed,
                params=RunParameters(
                    seed=op.seed, recovery=recovery, max_ticks=500_000
                ),
            )
            elapsed = time.perf_counter() - start
            wal_bytes = recovery.wal_bytes() if recovery is not None else 0
        finally:
            shutil.rmtree(wal_dir, ignore_errors=True)
        expected = {
            (c["client"], seq): tuple(o)
            for c in op.args["clients"]
            for seq, o in enumerate(c["ops"])
        }

        def check():
            failed, reasons = _audit(result, verify_run(result), len(expected))
            if reasons:
                return failed, reasons
            outcome = result.unanimous_decision()
            keys = [command.key for command in outcome.log]
            store: dict = {}
            for command in outcome.log:
                if command.op[0] == "set":
                    store[command.op[1]] = command.op[2]
                else:
                    store.pop(command.op[1], None)
            if len(set(keys)) != len(keys):
                reasons.append("a command committed twice")
            if any(expected.get(c.key) != c.op for c in outcome.log):
                reasons.append("a committed command was never submitted")
            if tuple(sorted(store.items())) != outcome.state:
                reasons.append("replicated state differs from the log's replay")
            missing = len(expected) - len(set(keys) & set(expected))
            if missing:
                reasons.append(f"{missing} submitted commands did not commit")
            return (max(missing, 1) if reasons else 0), reasons

        return Outcome(
            elapsed,
            len(expected),
            _run_counts(result),
            {"wal_bytes": wal_bytes},
            check,
        )

    def _crash_recover(self, op: Op) -> Outcome:
        args = op.args
        config = SystemConfig.with_optimal_resilience(args["n"])
        pid, value = args["pid"], args["value"]
        plan = FaultPlan(
            seed=op.seed,
            crashes=(
                ProcessCrash(
                    pid=pid, at_tick=args["at_tick"], restart_tick=args["restart_tick"]
                ),
            ),
        )
        wal_dir = tempfile.mkdtemp(prefix="crash-", dir=self.scratch)
        try:
            start = time.perf_counter()
            recovery = RecoveryManager(wal_dir)
            result = get_backend("cohen").run_weak_ba(
                config,
                {p: value for p in config.processes},
                lambda suite, cfg: ExternalValidity(_is_str),
                seed=op.seed,
                params=RunParameters(
                    seed=op.seed, fault_plan=plan, recovery=recovery
                ),
            )
            ran = time.perf_counter()
            replayed = replay_wal(os.path.join(wal_dir, f"p{pid}"))
            replay_done = time.perf_counter()
            history = load_history(os.path.join(wal_dir, f"p{pid}"))
            end = time.perf_counter()
        finally:
            shutil.rmtree(wal_dir, ignore_errors=True)

        def check():
            report = verify_under_plan(result, plan, expected_decision=value)
            failed, reasons = _audit(result, report)
            if result.recovered != frozenset({pid}) or recovery.stats.restarts != 1:
                reasons.append(f"p{pid} did not rejoin from its WAL")
            if not replayed.decided or replayed.decision != result.decisions.get(pid):
                reasons.append("offline replay did not reproduce the decision")
            if history.total_sends() == 0 or history.meta.get("pid") != pid:
                reasons.append("loaded history is empty or not this process's")
            return (1 if reasons else 0), reasons

        return Outcome(
            end - start,
            1,
            _run_counts(result),
            {
                "inrun_replay_ms": recovery.stats.replay_seconds * 1e3,
                "replay_wal_ms": (replay_done - ran) * 1e3,
                "load_history_ms": (end - replay_done) * 1e3,
            },
            check,
        )

    # ------------------------------------------------------------------
    # Real transports: one soak instance, one asyncio decision
    # ------------------------------------------------------------------

    def _soak_spec(self, op: Op):
        """The ``occurrence``-th instance of the derived stream with the
        op's shape (scan state memoized per shape)."""
        args = op.args
        shape = args["shape"]
        key = (args["master_seed"], tuple(sorted(shape.items())))
        index, found = self._soak_streams.get(key, (0, []))
        while len(found) <= args["occurrence"]:
            spec = derive_instance(
                args["master_seed"],
                index,
                PROFILES["mixed"],
                tick_duration=args["tick_duration"],
            )
            index += 1
            crashes = bool(spec.plan is not None and spec.plan.crashes)
            if (
                spec.protocol == shape["protocol"]
                and spec.n == shape["n"]
                and crashes == shape["crash"]
                and shape.get("num_slots", spec.num_slots) == spec.num_slots
            ):
                found.append(spec)
        self._soak_streams[key] = (index, found)
        return replace(found[args["occurrence"]], index=args["serial"])

    def _soak_instance(self, op: Op) -> Outcome:
        spec = self._soak_spec(op)
        start, cpu = time.perf_counter(), time.process_time()
        facts = run_instance(spec)
        elapsed, cpu = time.perf_counter() - start, time.process_time() - cpu
        auditor = self._auditor

        def check():
            reasons = [f"{v.kind}: {v.detail}" for v in auditor.submit(facts)]
            if facts.error is not None:
                reasons.append(facts.error)
            elif facts.words_billed != facts.words_predicted:
                reasons.append(
                    f"billed {facts.words_billed} words, "
                    f"simulator predicted {facts.words_predicted}"
                )
            elif not facts.verify_ok:
                reasons.append(facts.verify_summary)
            elif facts.decision != facts.predicted_decision:
                reasons.append("TCP decision differs from the simulator's")
            return (1 if reasons else 0), reasons

        return Outcome(
            elapsed,
            1,
            {
                "words": facts.words_billed,
                "messages": facts.messages,
                "signatures": facts.signatures,
            },
            {
                "cpu_s": cpu,
                "retries": facts.retries,
                "reconnects": facts.reconnects,
                "rejoins": facts.rejoins,
            },
            check,
        )

    def _async_weak_ba(self, op: Op) -> Outcome:
        config = SystemConfig.with_optimal_resilience(op.args["n"])
        validity = ExternalValidity(_is_str)
        value = op.args["value"]
        plan = FaultPlan(seed=op.seed, **op.args["plan"])
        factories = {
            pid: (lambda ctx: weak_ba_protocol(ctx, value, validity))
            for pid in config.processes
        }
        oracle = Simulation(config, seed=op.seed, fault_plan=plan)
        for pid in config.processes:
            oracle.add_process(pid, factories[pid])
        predicted = oracle.run()

        def matches(result) -> bool:
            return (
                result.correct_words == predicted.correct_words
                and result.trace.canonical() == predicted.trace.canonical()
            )

        # Rounds are wall-clock timers: a host stall can push a delivery
        # over a round boundary.  Like the soak worker, retry with a
        # longer round before letting a mismatch stand; the retries are
        # inside the timer, because they are time the decision took.
        start, cpu = time.perf_counter(), time.process_time()
        for retries, multiplier in enumerate(TICK_ESCALATION):
            result = asyncio.run(
                run_async(
                    config,
                    factories,
                    seed=op.seed,
                    tick_duration=op.args["tick_duration"] * multiplier,
                    fault_plan=plan,
                )
            )
            if matches(result):
                break
        elapsed, cpu = time.perf_counter() - start, time.process_time() - cpu

        def check():
            report = verify_under_plan(result, plan, expected_decision=value)
            failed, reasons = _audit(result, report)
            if not matches(result):
                reasons.append(
                    f"trace or word bill ({result.correct_words}, simulator "
                    f"{predicted.correct_words}) differs from the simulator's"
                )
            return (1 if reasons else 0), reasons

        return Outcome(
            elapsed, 1, _run_counts(result), {"cpu_s": cpu, "retries": retries}, check
        )


# ----------------------------------------------------------------------
# Direct-call probes: a layer's public functions timed in isolation
# ----------------------------------------------------------------------

PROBE_CALLS = 30


def _median_s(call: Callable[[int], object], *, before=None, calls=PROBE_CALLS) -> float:
    samples = []
    for i in range(calls):
        if before is not None:
            before(i)
        start = time.perf_counter()
        call(i)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _crypto_probes(seed: int) -> dict[str, float]:
    n, k = 101, 76  # the n=101, t=50 commit quorum
    material = f"probe-{seed}".encode()
    out = {}
    out["probe.crypto.deal_n101_ms"] = 1e3 * _median_s(
        lambda i: ThresholdScheme(f"deal-{i}", k, n, material)
    )
    scheme = ThresholdScheme("probe", k, n, material)
    out["probe.crypto.partial_sign_us"] = 1e6 * _median_s(
        lambda i: scheme.partial_sign(i % n, ("sign", seed, i)), calls=300
    )

    def shares(tag: str, i: int):
        payload = (tag, seed, i)
        return [scheme.partial_sign(pid, payload) for pid in range(k)], payload

    batches = [shares("verify", i) for i in range(PROBE_CALLS)]
    out["probe.crypto.verify_partials_k76_ms"] = 1e3 * _median_s(
        lambda i: scheme.verify_partials(*batches[i])
    )
    cold = [shares("cold", i)[0] for i in range(PROBE_CALLS)]
    out["probe.crypto.combine_cold_ms"] = 1e3 * _median_s(
        lambda i: scheme.combine(cold[i]),
        before=lambda i: crypto_field.clear_caches(),
    )
    warm = [shares("warm", i)[0] for i in range(PROBE_CALLS)]
    out["probe.crypto.combine_warm_us"] = 1e6 * _median_s(
        lambda i: scheme.combine(warm[i])
    )

    config = SystemConfig.with_optimal_resilience(n)
    signer_suite = CryptoSuite(config, seed=seed)
    verifier_suite = CryptoSuite(config, seed=seed)
    certificates = []
    for i in range(PROBE_CALLS):
        payload = ("certificate", seed, i)
        partials = [
            signer_suite.partial_for_certificate(pid, "probe", k, payload)
            for pid in range(k)
        ]
        certificates.append(
            signer_suite.combine_certificate("probe", k, payload, partials)
        )
    out["probe.crypto.verify_certificate_us"] = 1e6 * _median_s(
        lambda i: verifier_suite.verify_certificate(certificates[i], "probe", k)
    )
    out["probe.crypto.encode_us"] = 1e6 * _median_s(
        lambda i: encode(("wba", "commit", i, f"proposal-{seed}", (1, 2, 3))),
        calls=300,
    )
    return out


def _all_to_all(ctx, rounds: int):
    for round_number in range(rounds):
        ctx.broadcast(("ping", round_number))
        yield from ctx.next_round()
    return rounds


def _runtime_probes(seed: int) -> dict[str, float]:
    n, rounds = 21, 10
    config = SystemConfig.with_optimal_resilience(n)

    def flood(i: int):
        simulation = Simulation(config, seed=seed + i)
        for pid in config.processes:
            simulation.add_process(pid, lambda ctx: _all_to_all(ctx, rounds))
        return simulation.run()

    out = {"probe.runtime.all_to_all_env_per_s": n * n * rounds / _median_s(flood)}

    batch = 5000

    def bill(i: int):
        ledger = WordLedger()
        for j in range(batch):
            ledger.record(
                tick=j, sender=0, receiver=1, payload="probe", scope="probe",
                sender_correct=True,
            )

    out["probe.metrics.record_per_s"] = batch / _median_s(bill)

    small = SystemConfig.with_optimal_resilience(31)
    validity = ExternalValidity(_is_str)

    def weak_ba(observer):
        simulation = Simulation(small, seed=seed, observer=observer)
        for pid in small.processes:
            simulation.add_process(
                pid, lambda ctx: weak_ba_protocol(ctx, "probe", validity)
            )
        return simulation.run()

    weak_ba(None)
    # Interleaved so that a load spike hits both variants alike.
    plain, observed = [], []
    for _ in range(PROBE_CALLS):
        start = time.perf_counter()
        weak_ba(None)
        middle = time.perf_counter()
        weak_ba(Observer())
        plain.append(middle - start)
        observed.append(time.perf_counter() - middle)
    out["probe.obs.enabled_overhead_x"] = statistics.median(
        observed
    ) / statistics.median(plain)
    return out


def _recovery_probes(scratch: str) -> dict[str, float]:
    out = {}
    for fsync in ("never", "batch", "always"):
        wal_dir = tempfile.mkdtemp(prefix="probe-", dir=scratch)
        try:
            manager = RecoveryManager(wal_dir, fsync=fsync)

            def append_flush(i: int):
                manager.on_event(0, i, "probe", "tick", (i, "payload"))
                manager.flush(0)

            out[f"probe.recovery.append_flush_us_{fsync}"] = 1e6 * _median_s(
                append_flush, calls=200
            )
            manager.close()
        finally:
            shutil.rmtree(wal_dir, ignore_errors=True)
    return out


def probes(workload: str, seed: int, scratch: str) -> dict[str, float]:
    """The probes of the workload whose time the probed layer dominates."""
    if workload == "sim_fallback":
        return _crypto_probes(seed)
    if workload == "sim_adaptive":
        return _runtime_probes(seed)
    if workload == "smr_wal":
        return _recovery_probes(scratch)
    return {}
