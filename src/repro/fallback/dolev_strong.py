"""Dolev–Strong authenticated Byzantine Broadcast — the classical baseline.

Section 4 of the paper discusses why matching Dolev–Reischuk's
*message* lower bound is not the same as being word-efficient: the
classical algorithm's messages carry growing **signature chains**, so
its word complexity is cubic even though its message complexity is
``O(n^2)``.  Dolev–Strong (any ``t < n``, ``t + 1`` rounds) is the
canonical such protocol; the benchmark
``benchmarks/bench_baseline_dolev_strong.py`` uses it to regenerate the
words-vs-messages gap.

Protocol: the sender signs its value and broadcasts.  In round ``r``, a
process that accepts a value carried by a chain of ``r`` distinct
signatures (the sender's first) appends its own signature and relays the
chain to everyone — but only for the first *two* distinct values it ever
accepts (two suffice to prove sender equivocation).  After ``t + 1``
rounds a process decides the unique accepted value, or ``⊥`` if it
accepted zero or several.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator

from repro.config import ProcessId, RunParameters, SystemConfig
from repro.core.values import BOTTOM
from repro.crypto.keys import KeyRegistry, Signer
from repro.crypto.signatures import Signature
from repro.runtime.context import ProcessContext


def _chain_statement(value: object, previous_signers: tuple[ProcessId, ...]) -> tuple:
    return ("dolev-strong", value, previous_signers)


@dataclass(frozen=True)
class SignatureChain:
    """A value and the chain of signatures vouching for its relay path."""

    value: object
    chain: tuple[Signature, ...]

    @property
    def signers(self) -> tuple[ProcessId, ...]:
        """The signers in chain order; ``()`` when ``chain`` is not a
        tuple of :class:`Signature` objects."""
        chain = self.chain
        if type(chain) is not tuple or not all(
            isinstance(sig, Signature) for sig in chain
        ):
            return ()
        return tuple(sig.signer for sig in chain)

    def words(self) -> int:
        """Chains do not compact: one word per carried signature."""
        return max(1, len(self.chain))

    def signatures(self) -> int:
        return len(self.chain)

    def verify(self, registry: KeyRegistry, sender: ProcessId) -> bool:
        """All signatures valid, distinct signers, sender signs first;
        ``False`` for a malformed chain."""
        signers = self.signers
        if not signers or signers[0] != sender:
            return False
        return all(
            registry.verify(signature, _chain_statement(self.value, signers[:index]))
            for index, signature in enumerate(self.chain)
        ) and len(set(signers)) == len(signers)

    def extended(self, signer: Signer) -> "SignatureChain":
        signature = signer.sign(_chain_statement(self.value, self.signers))
        return SignatureChain(value=self.value, chain=self.chain + (signature,))


def initial_chain(signer: Signer, value: object) -> SignatureChain:
    """The sender's length-1 chain (exposed for adversarial senders)."""
    return SignatureChain(
        value=value, chain=(signer.sign(_chain_statement(value, ())),)
    )


def dolev_strong_protocol(
    ctx: ProcessContext,
    sender: ProcessId,
    value: object = None,
) -> Generator[None, None, object]:
    """Run Dolev–Strong BB; ``value`` is used only by the sender."""
    with ctx.scope("dolev_strong"):
        config = ctx.config
        extracted: list[object] = []

        if ctx.pid == sender:
            ctx.broadcast(initial_chain(ctx.signer, value))
            extracted.append(value)

        for round_number in range(1, config.t + 2):
            yield
            for envelope in ctx.inbox:
                payload = envelope.payload
                if not (
                    isinstance(payload, SignatureChain)
                    and payload.verify(ctx.suite.registry, sender)
                    and len(payload.chain) == round_number
                ):
                    continue
                if payload.value in extracted or len(extracted) >= 2:
                    continue
                extracted.append(payload.value)
                if ctx.pid not in payload.signers and round_number <= config.t:
                    ctx.broadcast(payload.extended(ctx.signer), include_self=False)

        if len(extracted) == 1:
            decision = extracted[0]
        else:
            decision = BOTTOM
        ctx.emit("decided", value=repr(decision))
        return decision


def build(meta: dict, **_code):
    """``meta -> factory(ctx)``, the table row's builder."""
    return lambda ctx: dolev_strong_protocol(
        ctx, meta["sender"], meta.get("input")
    )


def run_dolev_strong(
    config: SystemConfig,
    sender: ProcessId,
    value: object,
    *,
    seed: int = 0,
    byzantine: dict[ProcessId, Any] | None = None,
    params: RunParameters | None = None,
):
    """Standalone driver for the baseline; returns the run result."""
    from repro.protocols.table import run_protocol

    meta = {"sender": sender, "input": value}
    return run_protocol(
        "dolev_strong", config, dict.fromkeys(config.processes, meta),
        seed=seed, byzantine=byzantine, params=params,
    )
