"""One soak instance, end to end, inside one fleet worker process.

:func:`run_instance` is the unit the multiprocessing pool maps over.
It runs the spec **twice**:

1. on the tick simulator — the deterministic oracle, producing the
   *predicted* word bill and decision for this seed and fault plan;
2. over real localhost TCP sockets (:func:`repro.asyncnet.tcp
   .run_over_tcp`), with WAL-backed crash recovery when the plan
   crashes a process — producing the *measured* facts.

Both runtimes consume the identical seeded :class:`FaultPlan`, so any
divergence between them is a bug in the stack, not noise — that
equality is exactly what the auditor's no-double-billing and
decision-divergence invariants assert.  The one legitimate source of
divergence is a round closed by timeout: rounds end as soon as every
process has parked and every due copy has landed, but a heavily loaded
host can stall a process or a copy past the round timeout δ
(``tick_duration``), regrouping deliveries.  The worker therefore
retries a mismatched instance with a doubled (then quadrupled) round
timeout before letting the facts stand, and reports the retry count so
the fleet can surface scheduler pressure.

Facts travel back to the coordinator as a picklable
:class:`InstanceFacts`; worker-side exceptions are folded into
``facts.error`` instead of poisoning the pool.
"""

from __future__ import annotations

import asyncio
import tempfile
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field

from repro.config import RunParameters, SystemConfig
from repro.soak.plan import InstanceSpec

TICK_ESCALATION = (1.0, 2.0, 4.0)
"""Round-timeout multipliers tried before a billed-vs-predicted mismatch
is allowed to reach the auditor (absorbs a round closed by timeout
under host load, which a deterministic accounting bug by definition
survives)."""

INJECT_DOUBLE_BILL = "double-bill"
"""Sabotage tag: bill one send twice, as a broken retransmission path
would — must trip the auditor's ``double-billing`` invariant."""
INJECT_SKIP_REJOIN_DEDUP = "skip-rejoin-dedup"
"""Sabotage tag: count a rejoined process's resumed frames as fresh
sends, as a skipped ``(sender, epoch)`` dedup window would — must trip
the ``wal-highwater`` invariant."""


@dataclass
class InstanceFacts:
    """Everything the auditor needs to know about one finished instance."""

    index: int
    protocol: str = ""
    n: int = 0
    t: int = 0
    seed: int = 0
    decision: str = ""
    predicted_decision: str = ""
    verify_ok: bool = False
    verify_summary: str = ""
    words_billed: int = 0
    words_predicted: int = 0
    ledger_recount: int = 0
    messages: int = 0
    signatures: int = 0
    ledger_sends: dict[int, int] = field(default_factory=dict)
    wal_sends: dict[int, int] = field(default_factory=dict)
    """Per-pid WAL send-highwater totals (crash instances only)."""
    phantom_sends: int = 0
    crashes: int = 0
    rejoins: int = 0
    resets: int = 0
    reconnects: int = 0
    ticks: int = 0
    latency: float = 0.0
    retries: int = 0
    inject: str | None = None
    error: str | None = None


def _decision_repr(result) -> str:
    return repr(
        [(pid, result.decisions.get(pid)) for pid in sorted(result.decisions)]
    )


def _recovery(spec: InstanceSpec, wal_dir: str):
    """A WAL per process when the plan crashes one, else none."""
    from repro.recovery.manager import RecoveryManager

    if spec.plan is not None and spec.plan.crashes:
        return RecoveryManager(wal_dir)
    return None


def _run_sim(spec: InstanceSpec, wal_dir: str):
    """The oracle run: tick simulator, same seed and fault plan."""
    from repro.protocols.table import run_protocol, string_validity

    return run_protocol(
        spec.protocol,
        SystemConfig(n=spec.n, t=spec.t),
        spec.metas(),
        seed=spec.seed,
        params=RunParameters(
            seed=spec.seed,
            fault_plan=spec.plan,
            recovery=_recovery(spec, wal_dir),
        ),
        validity=string_validity,
    )


def _run_tcp(spec: InstanceSpec, tick_duration: float, wal_dir: str):
    """The measured run: real sockets, WAL recovery when crashing."""
    from repro.asyncnet.tcp import run_over_tcp
    from repro.protocols.table import PROTOCOLS, string_validity

    config = SystemConfig(n=spec.n, t=spec.t)
    recovery = _recovery(spec, wal_dir)
    build = PROTOCOLS[spec.protocol].build
    validity = string_validity()
    result = asyncio.run(
        run_over_tcp(
            config,
            {
                pid: build(meta, validity=validity)
                for pid, meta in spec.metas().items()
            },
            seed=spec.seed,
            tick_duration=tick_duration,
            fault_plan=spec.plan,
            recovery=recovery,
        )
    )
    return result, recovery


def _collect(
    spec: InstanceSpec, result, recovery, predicted, retries: int
) -> InstanceFacts:
    from repro.recovery.wal import load_history
    from repro.verify.checker import verify_run, verify_under_plan

    ledger = result.ledger
    if spec.plan is not None:
        report = verify_under_plan(result, spec.plan)
    else:
        report = verify_run(result)
    correct_bills = [b for b in ledger.bills if b.sender_correct]
    ledger_sends: Counter = Counter()
    for bill in correct_bills:
        ledger_sends[bill.sender] += bill.copies
    wal_sends: dict[int, int] = {}
    phantom = 0
    crashes = rejoins = 0
    if recovery is not None:
        crashes = recovery.stats.crashes
        rejoins = recovery.stats.restarts
        phantom = sum(r.phantom_sends for r in recovery.stats.reports)
        for pid in recovery.pids():
            wal_sends[pid] = load_history(
                recovery.wal_dir / f"p{pid}"
            ).total_sends()
    return InstanceFacts(
        index=spec.index,
        protocol=spec.protocol,
        n=spec.n,
        t=spec.t,
        seed=spec.seed,
        decision=_decision_repr(result),
        predicted_decision=_decision_repr(predicted),
        verify_ok=report.ok,
        verify_summary=report.summary(),
        words_billed=ledger.correct_words,
        words_predicted=predicted.ledger.correct_words,
        ledger_recount=sum(b.words * b.copies for b in correct_bills),
        messages=ledger.correct_messages,
        signatures=ledger.signature_count(),
        ledger_sends=dict(ledger_sends),
        wal_sends=wal_sends,
        phantom_sends=phantom,
        crashes=crashes,
        rejoins=rejoins,
        resets=len(spec.plan.resets) if spec.plan is not None else 0,
        reconnects=result.trace.count("reconnected"),
        ticks=result.ticks,
        retries=retries,
        inject=spec.inject,
    )


def _sabotage(facts: InstanceFacts) -> InstanceFacts:
    """Apply the spec's injected accounting bug to otherwise-honest
    facts.  The tampering models the real failure mode it is named
    after, so the auditor test asserts the *specific* invariant fires.
    """
    if facts.inject == INJECT_DOUBLE_BILL:
        # One send entered the ledger twice: both the running total and
        # the recount grow, so only the prediction comparison can see it.
        facts.words_billed += 1
        facts.ledger_recount += 1
    elif facts.inject == INJECT_SKIP_REJOIN_DEDUP:
        # The rejoined incarnation's resumed frames were delivered (and
        # billed) again: the ledger runs ahead of the WAL highwater.
        pid = min(facts.wal_sends) if facts.wal_sends else 0
        extra = max(1, facts.rejoins)
        facts.ledger_sends[pid] = facts.ledger_sends.get(pid, 0) + extra
        facts.words_billed += extra
        facts.ledger_recount += extra
    return facts


def run_instance(spec: InstanceSpec) -> InstanceFacts:
    """Run one spec in this worker process and report the facts."""
    start = time.perf_counter()
    try:
        with tempfile.TemporaryDirectory(prefix="soak-") as tmp:
            predicted = _run_sim(spec, f"{tmp}/sim")
            facts = None
            for attempt, multiplier in enumerate(TICK_ESCALATION):
                result, recovery = _run_tcp(
                    spec, spec.tick_duration * multiplier, f"{tmp}/tcp{attempt}"
                )
                facts = _collect(spec, result, recovery, predicted, attempt)
                if (
                    facts.words_billed == facts.words_predicted
                    and facts.decision == facts.predicted_decision
                ):
                    break
        facts = _sabotage(facts)
    except Exception as exc:  # the pool must keep draining
        facts = InstanceFacts(
            index=spec.index,
            protocol=spec.protocol,
            inject=spec.inject,
            error="".join(
                traceback.format_exception_only(type(exc), exc)
            ).strip(),
        )
    facts.latency = time.perf_counter() - start
    return facts
