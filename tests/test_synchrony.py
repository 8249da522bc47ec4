"""The partial-synchrony model and the paced round scheduler.

Covers the :mod:`repro.runtime.synchrony` model algebra (delivery laws,
timeout policy, seeded purity, reseeding), the spec parser, and the
scheduler's shared round clock (certificate-∨-timeout advancement,
round-unit ``ctx.now``), including ``gst=0`` partial synchrony
reproducing the lockstep trajectory.
"""

from dataclasses import fields

import pytest

from repro.config import RunParameters, SystemConfig
from repro.core.validity import ExternalValidity
from repro.core.weak_ba import run_weak_ba
from repro.errors import ConfigurationError, SchedulerError
from repro.runtime.scheduler import Simulation
from repro.runtime.synchrony import PRE_GST_CAP, PartialSynchrony, parse_synchrony

config5 = SystemConfig(n=5, t=1)


def string_validity(suite, config):
    return ExternalValidity(lambda v: isinstance(v, str) and not v.startswith("!"))


def run_weak(model, max_ticks=5000, seed=0):
    params = RunParameters(max_ticks=max_ticks, synchrony=model)
    return run_weak_ba(
        config5,
        {p: "v" for p in config5.processes},
        string_validity,
        seed=seed,
        params=params,
    )


class TestModelAlgebra:
    def test_fields(self):
        """GST, the delay bound, the seed and the pre-GST choice arity
        are the whole model: back-off and timeout are constants."""
        assert [f.name for f in fields(PartialSynchrony)] == [
            "gst", "delta", "seed", "pre_gst_levels",
        ]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PartialSynchrony(delta=0)
        with pytest.raises(ConfigurationError):
            PartialSynchrony(gst=-1)
        with pytest.raises(ConfigurationError):
            PartialSynchrony(pre_gst_levels=1)

    def test_backoff_escalates_and_caps(self):
        model = PartialSynchrony()
        seen = [1]
        while True:
            grown = model.next_timeout(seen[-1])
            if grown == seen[-1]:
                break
            seen.append(grown)
        assert seen == [1, 2, 4, 8]  # capped at 8 * delta

    def test_post_gst_delivery_respects_delta(self):
        model = PartialSynchrony(gst=4, delta=3, seed=7)
        for sender in config5.processes:
            for receiver in config5.processes:
                if sender == receiver:
                    continue
                for tick in (4, 5, 20):
                    d = model.delivery_tick(sender, receiver, tick, 0)
                    assert tick + 1 <= d <= tick + 3

    def test_post_gst_link_latency_is_fixed_per_run(self):
        model = PartialSynchrony(gst=0, delta=4, seed=11)
        latencies = {
            model.delivery_tick(0, 1, tick, 0) - tick for tick in range(20)
        }
        assert len(latencies) == 1  # the link's seeded latency persists

    def test_pre_gst_delivery_bounded_by_stabilization(self):
        model = PartialSynchrony(gst=10, delta=2, seed=3)
        delivered = set()
        for tick in range(10):
            for seq in range(4):
                d = model.delivery_tick(0, 1, tick, seq)
                assert tick + 1 <= d <= 10 + 2
                delivered.add(d)
        assert 10 + 2 in delivered  # late sends are clamped to gst + delta

    def test_pre_gst_delay_capped(self):
        model = PartialSynchrony(gst=1000, seed=3)
        delays = {
            model.delivery_tick(0, 1, tick, seq) - tick
            for tick in range(50) for seq in range(4)
        }
        assert min(delays) >= 1 and max(delays) == 1 + PRE_GST_CAP

    def test_self_sends_never_delayed(self):
        model = PartialSynchrony(gst=50, seed=9)
        assert model.delivery_tick(2, 2, 5, 0) == 6

    def test_delivery_is_pure(self):
        model = PartialSynchrony(gst=6, delta=2, seed=5)
        a = [model.delivery_tick(1, 3, 2, s) for s in range(8)]
        b = [model.delivery_tick(1, 3, 2, s) for s in range(8)]
        assert a == b

    def test_delay_options_include_both_endpoints(self):
        model = PartialSynchrony(gst=9, delta=1, pre_gst_levels=3)
        options = model._delay_options(3, 10)
        assert options[0] == 3 and options[-1] == 10
        assert len(options) == 3 and options == sorted(set(options))
        # A degenerate span collapses without duplicates.
        assert model._delay_options(5, 5) == [5]
        assert model._delay_options(5, 6) == [5, 6]

    def test_reseeded_rederives_every_subschedule(self):
        base = PartialSynchrony(gst=8, delta=3, seed=1)
        other = base.reseeded(2)
        assert other == PartialSynchrony(gst=8, delta=3, seed=2)
        # Same laws, different draws somewhere in each seeded stream.
        assert any(
            base.delivery_tick(s, r, t, 0) != other.delivery_tick(s, r, t, 0)
            for s in config5.processes
            for r in config5.processes
            for t in range(8)
            if s != r
        )
        assert base.reseeded(1) == base


class TestParseSynchrony:
    def test_specs(self):
        assert parse_synchrony("lockstep") is None
        assert parse_synchrony("gst:4") == PartialSynchrony(gst=4)
        assert parse_synchrony("gst:4:2") == PartialSynchrony(gst=4, delta=2)

    @pytest.mark.parametrize(
        "spec",
        ["", "gst", "gst:x", "lockstep:2", "lockstep:2:3", "banana", "gst:1:2:3"],
    )
    def test_rejects_bad_specs(self, spec):
        with pytest.raises(ConfigurationError):
            parse_synchrony(spec)


class TestSchedulerIntegration:
    def test_trivial_path_untouched(self):
        sim = Simulation(config5)
        assert not sim._paced
        assert sim.pacer_fingerprint(repr) == ()

    def test_rejects_non_model(self):
        with pytest.raises(SchedulerError):
            Simulation(config5, synchrony="gst:3")

    def test_paced_excludes_recovery(self, tmp_path):
        from repro.recovery.manager import RecoveryManager

        with pytest.raises(SchedulerError, match="lockstep"):
            Simulation(
                config5,
                synchrony=PartialSynchrony(gst=0),
                recovery=RecoveryManager(tmp_path),
            )

    def test_gst_zero_matches_lockstep_trajectory(self):
        """Fully synchronous timing under the paced scheduler: the
        shared round clock advances by certificate/base-timeout every
        tick, reproducing the lockstep run exactly."""
        base = run_weak(None)
        paced = run_weak(PartialSynchrony(gst=0))
        assert paced.decisions == base.decisions
        assert paced.ledger.total_words == base.ledger.total_words
        assert paced.ticks == base.ticks

    @pytest.mark.parametrize("gst", [2, 5, 9])
    def test_gst_runs_decide_unanimously(self, gst):
        result = run_weak(PartialSynchrony(gst=gst))
        assert set(result.decisions.values()) == {"v"}
        assert not result.truncated

    def test_gst_run_is_seed_deterministic(self):
        a = run_weak(PartialSynchrony(gst=4, seed=7))
        b = run_weak(PartialSynchrony(gst=4, seed=7))
        assert a.decisions == b.decisions
        assert a.ticks == b.ticks
        assert a.ledger.total_words == b.ledger.total_words

    def test_now_counts_rounds_not_ticks(self):
        """Under a paced model ``ctx.now`` reports the round index, so
        protocol timers written in round units keep their meaning."""
        observed = {}

        def clockwatcher(ctx):
            first = ctx.now
            yield
            yield
            observed[ctx.pid] = (first, ctx.now)
            return "done"

        sim = Simulation(
            config5, synchrony=PartialSynchrony(delta=3), max_ticks=100
        )
        for pid in config5.processes:
            sim.add_process(pid, clockwatcher)
        result = sim.run()
        assert set(result.decisions.values()) == {"done"}
        for first, last in observed.values():
            assert (first, last) == (0, 2)
        # Three-tick rounds: the run took ~3 ticks per round, not 1.
        assert result.ticks >= 6

    def test_paced_observability(self):
        from repro.obs.observer import Observer

        obs = Observer()
        params = RunParameters(
            max_ticks=5000,
            synchrony=PartialSynchrony(gst=4),
            observer=obs,
        )
        result = run_weak_ba(
            config5,
            {p: "v" for p in config5.processes},
            string_validity,
            params=params,
        )
        assert set(result.decisions.values()) == {"v"}
        counters = obs.snapshot()["metrics"]["counters"]
        assert counters.get("sync.cert_advance", 0) > 0
        assert counters.get("sync.timeout_fired", 0) > 0
