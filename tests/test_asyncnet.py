"""Tests for the asyncio transport (same protocols, real time)."""

import asyncio

import pytest

from repro.asyncnet import run_async
from repro.core.byzantine_broadcast import byzantine_broadcast_protocol
from repro.core.strong_ba import strong_ba_protocol
from repro.core.validity import ExternalValidity
from repro.core.weak_ba import weak_ba_protocol
from repro.errors import SchedulerError

TICK = 0.02


def run(coro):
    return asyncio.run(coro)


class TestAsyncTransport:
    def test_bb_over_asyncio(self, config5):
        result = run(
            run_async(
                config5,
                {
                    pid: (lambda ctx: byzantine_broadcast_protocol(ctx, 0, "v"))
                    for pid in config5.processes
                },
                tick_duration=TICK,
            )
        )
        assert result.unanimous_decision() == "v"
        assert result.correct_words > 0

    def test_strong_ba_over_asyncio(self, config5):
        result = run(
            run_async(
                config5,
                {
                    pid: (lambda ctx: strong_ba_protocol(ctx, 1))
                    for pid in config5.processes
                },
                tick_duration=TICK,
            )
        )
        assert result.unanimous_decision() == 1

    def test_weak_ba_with_network_latency(self, config5):
        """Latency below the synchrony bound must not affect outcomes."""
        validity = ExternalValidity(lambda v: isinstance(v, str))
        result = run(
            run_async(
                config5,
                {
                    pid: (lambda ctx: weak_ba_protocol(ctx, "v", validity))
                    for pid in config5.processes
                },
                tick_duration=TICK,
                latency=TICK / 2,
            )
        )
        assert result.unanimous_decision() == "v"

    def test_crashed_processes(self, config5):
        result = run(
            run_async(
                config5,
                {
                    pid: (lambda ctx: byzantine_broadcast_protocol(ctx, 0, "v"))
                    for pid in config5.processes
                    if pid != 3
                },
                tick_duration=TICK,
                crashed=frozenset({3}),
            )
        )
        assert result.unanimous_decision() == "v"
        assert result.corrupted == frozenset({3})

    def test_latency_must_respect_synchrony_bound(self, config5):
        with pytest.raises(SchedulerError):
            run(
                run_async(
                    config5,
                    {},
                    tick_duration=TICK,
                    latency=TICK * 2,
                )
            )

    def test_missing_process_rejected(self, config5):
        with pytest.raises(SchedulerError):
            run(
                run_async(
                    config5,
                    {0: lambda ctx: strong_ba_protocol(ctx, 1)},
                    tick_duration=TICK,
                )
            )

    @pytest.mark.parametrize("seed", [True, 1.0, "1"])
    def test_seed_must_be_an_int(self, config5, seed):
        """``True`` used to decide silently under the master seed of
        ``"True"``, and ``1.0`` to fail inside a started driver task."""
        with pytest.raises(SchedulerError, match="seed must be an int"):
            run(
                run_async(
                    config5,
                    {
                        pid: (lambda ctx: byzantine_broadcast_protocol(ctx, 0, "v"))
                        for pid in config5.processes
                    },
                    seed=seed,
                    tick_duration=TICK,
                )
            )

    def test_byzantine_behavior_over_asyncio(self, config5):
        """The same behavior objects drive Byzantine processes on the
        real transport (sans rushing)."""
        from repro.adversary.behaviors import GarbageSpammer

        validity = ExternalValidity(lambda v: isinstance(v, str))
        result = run(
            run_async(
                config5,
                {
                    pid: (lambda ctx: weak_ba_protocol(ctx, "v", validity))
                    for pid in config5.processes
                    if pid != 2
                },
                byzantine={2: GarbageSpammer()},
                tick_duration=TICK,
            )
        )
        assert result.unanimous_decision() == "v"
        assert result.corrupted == frozenset({2})
        # Adversary words recorded but not attributed to correct processes.
        assert result.ledger.total_words > result.correct_words

    def test_word_counts_match_simulator(self, config5):
        """Transport independence: identical word totals on both
        runtimes for a deterministic failure-free run."""
        from repro.core.byzantine_broadcast import run_byzantine_broadcast

        simulated = run_byzantine_broadcast(config5, sender=0, value="v")
        asynced = run(
            run_async(
                config5,
                {
                    pid: (lambda ctx: byzantine_broadcast_protocol(ctx, 0, "v"))
                    for pid in config5.processes
                },
                tick_duration=TICK,
            )
        )
        assert asynced.correct_words == simulated.correct_words
