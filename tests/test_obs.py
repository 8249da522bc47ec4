"""Tests for the observability layer (:mod:`repro.obs`).

The contract under test has three legs:

1. **Deterministic telemetry** — fixed histogram buckets, sorted
   snapshots, simulated clocks: two identical runs produce
   byte-identical observer state.
2. **Observers record, never steer** — attaching an observer changes
   nothing about a run: same decisions, same word bill, same trace,
   and (the strongest form) identical model-checker exploration
   results.
3. **Machine-readable outputs** — the export format round-trips
   ``meta``/``obs``/``phase``, the run summary computes the paper's
   headlines (per-phase words, silent ratio, fallback skew), and the
   benchmark JSON schema accepts/rejects what it should.
"""

import dataclasses
import json

import pytest

from repro.adversary.behaviors import SilentBehavior
from repro.analysis.export import load_run, run_to_dict, save_run
from repro.config import RunParameters, SystemConfig
from repro.core.validity import ExternalValidity
from repro.core.weak_ba import run_weak_ba
from repro.mc.explore import explore_exhaustive
from repro.mc.scenario import make_scenario
from repro.obs import (
    DEFAULT_BUCKETS,
    EventLog,
    Histogram,
    MetricsRegistry,
    Observer,
    summarize_export,
    validate_bench_result,
)
from repro.obs.summary import render_summary

VALIDITY = lambda suite, cfg: ExternalValidity(lambda v: isinstance(v, str))


def run_instrumented(n=7, byzantine_pids=(1, 3), seed=0, observer=None):
    config = SystemConfig.with_optimal_resilience(n)
    byzantine = {p: SilentBehavior() for p in byzantine_pids}
    inputs = {p: "v" for p in config.processes if p not in byzantine}
    params = RunParameters(seed=seed, observer=observer)
    return run_weak_ba(
        config, inputs, VALIDITY, byzantine=byzantine, seed=seed, params=params
    )


class TestRegistry:
    def test_counter_rejects_negative_increments(self):
        registry = MetricsRegistry()
        counter = registry.counter("words")
        counter.inc(3)
        with pytest.raises(ValueError):
            counter.inc(-1)
        assert counter.value == 3

    def test_histogram_buckets_are_fixed_and_placement_is_boundary_inclusive(self):
        h = Histogram(buckets=(1, 10, 100))
        for value in (0, 1, 2, 10, 11, 1000):
            h.observe(value)
        # counts[i] holds observations <= buckets[i]; last is overflow.
        assert h.counts == [2, 2, 1, 1]
        assert h.total == 6
        assert h.min == 0 and h.max == 1000

    def test_histogram_refuses_unsorted_buckets(self):
        with pytest.raises(ValueError):
            Histogram(buckets=(10, 1))

    def test_registry_refuses_to_rebucket_an_existing_histogram(self):
        registry = MetricsRegistry()
        registry.histogram("lat", buckets=(1, 2))
        with pytest.raises(ValueError):
            registry.histogram("lat", buckets=(1, 2, 3))

    def test_snapshot_is_sorted_and_json_compatible(self):
        registry = MetricsRegistry()
        registry.counter("zebra").inc()
        registry.counter("aardvark").inc(2)
        registry.gauge("final").set(7.0)
        registry.histogram("h", buckets=DEFAULT_BUCKETS).observe(3)
        snap = registry.snapshot()
        assert list(snap["counters"]) == ["aardvark", "zebra"]
        json.dumps(snap)  # must not raise


class TestEventLog:
    def test_events_are_sequenced_and_jsonl_round_trips(self):
        log = EventLog()
        log.append("decided", at=4.0, pid=2)
        log.append("truncated", at=9.0)
        lines = [json.loads(line) for line in log.to_jsonl().splitlines()]
        assert [e["seq"] for e in lines] == [0, 1]
        assert lines[0] == {"seq": 0, "at": 4.0, "name": "decided", "pid": 2}

    def test_non_json_fields_are_coerced_to_repr(self):
        log = EventLog()
        log.append("odd", at=0.0, payload=frozenset({1}), nested={"k": (1, 2)})
        event = log.events[0]
        assert event["payload"] == repr(frozenset({1}))
        assert event["nested"] == {"k": [1, 2]}


class TestObserver:
    def test_simulated_clock_follows_ticks(self):
        obs = Observer()
        obs.on_tick(5)
        assert obs.time() == 5.0
        obs.event("marker")
        assert obs.events.events[0]["at"] == 5.0


class TestRunInstrumentation:
    def test_observer_counters_match_the_word_ledger(self):
        obs = Observer()
        result = run_instrumented(observer=obs)
        counters = obs.registry.snapshot()["counters"]
        assert counters["words.correct"] == result.correct_words
        assert counters["messages.total"] == len(result.ledger.records)
        assert counters["words.total"] == sum(
            r.words for r in result.ledger.records
        )
        assert counters["signatures.total"] == result.ledger.signature_count()
        assert counters["sim.ticks"] == result.ticks
        # Phase-stamped traffic lands in per-phase series.
        assert any(name.startswith("words.phase.") for name in counters)

    def test_telemetry_is_deterministic_across_identical_runs(self):
        first, second = Observer(), Observer()
        run_instrumented(observer=first)
        run_instrumented(observer=second)
        assert first.snapshot() == second.snapshot()
        assert first.events.to_jsonl() == second.events.to_jsonl()

    def test_observer_never_changes_the_run(self):
        plain = run_instrumented(observer=None)
        observed = run_instrumented(observer=Observer())
        assert observed.decisions == plain.decisions
        assert observed.correct_words == plain.correct_words
        assert observed.ticks == plain.ticks
        assert observed.trace.events == plain.trace.events

    def test_run_result_carries_the_active_observer(self):
        obs = Observer()
        assert run_instrumented(observer=obs).observer is obs
        assert run_instrumented(observer=None).observer is None


class TestModelCheckerUnchanged:
    @staticmethod
    def _scenario():
        return make_scenario("weak-ba", n=4, t=1, max_ticks=12, perm_cap=2)

    def test_behavior_pruned_exploration_is_repeatable(self):
        """Regression: ``SilentBehavior`` lacked a stable repr, so the
        behavior fingerprint hashed a memory address and pruning varied
        between explorations in the same process."""
        first = explore_exhaustive(self._scenario(), max_runs=10_000)
        second = explore_exhaustive(self._scenario(), max_runs=10_000)
        assert dataclasses.asdict(first.stats) == dataclasses.asdict(
            second.stats
        )

    def test_exploration_identical_with_observer_attached(self):
        """The strongest form of 'observers record, never steer': the
        exhaustive exploration visits the same state space, prunes the
        same schedules, and reaches the same verdicts whether or not
        every simulation carries a recording observer."""
        plain = explore_exhaustive(self._scenario(), max_runs=10_000)

        observers = []
        scenario = self._scenario()
        orig_build = scenario.build

        def build_with_observer(choices):
            sim = orig_build(choices)
            obs = Observer()
            sim.observer = obs
            observers.append(obs)
            return sim

        instrumented = explore_exhaustive(
            dataclasses.replace(scenario, build=build_with_observer),
            max_runs=10_000,
        )

        assert dataclasses.asdict(plain.stats) == dataclasses.asdict(
            instrumented.stats
        )
        assert plain.complete == instrumented.complete
        assert len(plain.counterexamples) == len(instrumented.counterexamples)
        # Not vacuous: the observers really recorded the explored runs.
        assert observers and any(
            o.registry.snapshot()["counters"].get("words.total", 0) > 0
            for o in observers
        )


class TestExportRoundTrip:
    def test_export_carries_meta_obs_and_phase(self, tmp_path):
        obs = Observer()
        result = run_instrumented(observer=obs)
        meta = {"protocol": "weak-ba", "seed": 0, "num_phases": 7}
        path = save_run(result, tmp_path / "run.json", meta=meta)
        loaded = load_run(path)
        assert loaded.meta == meta
        assert loaded.obs == obs.snapshot()
        assert loaded.correct_words == result.correct_words
        phases = {r.phase for r in loaded.ledger.records}
        assert any(isinstance(p, int) for p in phases)

    def test_loader_accepts_version_1_exports(self, tmp_path):
        result = run_instrumented()
        raw = run_to_dict(result)
        raw["format_version"] = 1
        del raw["meta"], raw["obs"]
        for record in raw["records"]:
            del record["phase"]
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(raw))
        loaded = load_run(path)
        assert loaded.meta == {} and loaded.obs is None
        assert loaded.correct_words == result.correct_words

    def test_loader_rejects_unknown_versions(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format_version": 99}))
        with pytest.raises(ValueError):
            load_run(path)


class TestSummary:
    def test_real_run_summary_reports_the_paper_headlines(self):
        obs = Observer()
        result = run_instrumented(observer=obs)
        raw = run_to_dict(
            result, meta={"protocol": "weak-ba", "num_phases": 7}
        )
        summary = summarize_export(raw)
        assert summary["totals"]["correct_words"] == result.correct_words
        phases = summary["phases"]
        assert phases["planned"] == 7
        assert phases["non_silent"] + phases["silent"] == 7
        assert sum(
            int(w) for w in summary["words_by_phase"].values()
        ) <= result.correct_words
        # With two silent Byzantine processes some planned phases must
        # have gone silent — the adaptivity headline.
        assert phases["silent"] > 0
        assert 0 < phases["silent_ratio"] < 1
        rendered = render_summary(summary)
        assert "silent ratio" in rendered and "words by phase" in rendered

    def test_fallback_entry_skew_from_events(self):
        raw = {
            "records": [],
            "events": [
                {"name": "fallback_started", "pid": 0, "tick": 20},
                {"name": "fallback_started", "pid": 1, "tick": 21},
                {"name": "fallback_started", "pid": 0, "tick": 25},  # dup
            ],
            "meta": {"num_phases": 3},
            "summary": {},
        }
        fallback = summarize_export(raw)["fallback"]
        assert fallback["used"] is True
        assert fallback["entry_ticks"] == {"0": 20, "1": 21}
        assert fallback["entry_skew"] == 1

    def test_byzantine_traffic_is_excluded_from_phase_words(self):
        raw = {
            "records": [
                {"tick": 1, "words": 5, "phase": 1, "sender_correct": True},
                {"tick": 1, "words": 9, "phase": 1, "sender_correct": False},
                {"tick": 2, "words": 2, "phase": 2, "sender_correct": True},
            ],
            "events": [],
            "meta": {"num_phases": 4},
            "summary": {},
        }
        summary = summarize_export(raw)
        assert summary["words_by_phase"] == {"1": 5, "2": 2}
        assert summary["phases"]["silent"] == 2
        assert summary["hot_spots"]["busiest_ticks"][0] == {
            "tick": 1,
            "words": 5,
        }


class TestBenchSchema:
    @staticmethod
    def _valid_doc():
        return {
            "schema_version": 1,
            "name": "bench",
            "git_rev": "abc123",
            "scenario": {"n": 9},
            "word_bills": [
                {
                    "label": "f=0",
                    "n": 9,
                    "t": 2,
                    "f": 0,
                    "words": 40,
                    "messages": 40,
                    "signatures": 8,
                    "fallback": False,
                }
            ],
            "wall_clock": {
                "unit": "seconds",
                "repeats": 3,
                "percentiles": {"p50": 0.1, "p90": 0.2, "p99": 0.2},
            },
            "sections": ["report text"],
        }

    def test_valid_document_passes(self):
        assert validate_bench_result(self._valid_doc()) == []

    def test_null_wall_clock_and_empty_bills_are_allowed(self):
        doc = self._valid_doc()
        doc["wall_clock"] = None
        doc["word_bills"] = []
        assert validate_bench_result(doc) == []

    def test_bool_words_do_not_pass_as_ints(self):
        doc = self._valid_doc()
        doc["word_bills"][0]["words"] = True
        assert any(
            "words must be a int" in e for e in validate_bench_result(doc)
        )

    def test_missing_keys_and_bad_version_are_reported(self):
        errors = validate_bench_result({"schema_version": 2})
        joined = "\n".join(errors)
        assert "schema_version" in joined
        assert "name" in joined and "scenario" in joined
        assert "word_bills" in joined


class TestEmptyRunAudit:
    """The empty-run path: a run with no planned phases summarizes to
    ``silent_ratio: None``, and that ``None`` must survive the whole
    trail — render, schema validation, and ``publish`` — instead of
    failing at whichever layer meets it first."""

    def test_empty_export_summarizes_and_renders_with_none_ratio(self):
        raw = {"records": [], "events": [], "meta": {}, "summary": {}}
        summary = summarize_export(raw)
        assert summary["phases"]["silent_ratio"] is None
        rendered = render_summary(summary)
        assert "silent ratio" not in rendered  # no fake 0.0% for an empty run
        assert "(no phase-stamped traffic)" in rendered

    def test_none_scenario_values_pass_schema_validation(self):
        doc = {
            "schema_version": 1,
            "name": "empty-run",
            "git_rev": None,
            "scenario": {"silent_ratio": None, "nested": {"also": None}},
            "word_bills": [],
            "wall_clock": None,
            "sections": ["empty"],
        }
        assert validate_bench_result(doc) == []

    def test_non_json_scenario_values_are_schema_errors_not_crashes(self):
        doc = {
            "schema_version": 1,
            "name": "bad",
            "git_rev": None,
            "scenario": {"ratio": {1: "non-string key"}, "obj": object()},
            "word_bills": [],
            "wall_clock": None,
            "sections": [],
        }
        errors = validate_bench_result(doc)
        assert any("key 1" in e for e in errors)
        assert any("scenario.obj" in e for e in errors)

    def test_publish_round_trips_a_none_bearing_scenario(
        self, tmp_path, monkeypatch, capsys
    ):
        import benchmarks._harness as harness

        monkeypatch.setattr(harness, "RESULTS_DIR", tmp_path)
        harness.publish(
            "empty-run", "no traffic",
            scenario={"silent_ratio": None}, wall_clock=None,
        )
        document = json.loads((tmp_path / "empty-run.json").read_text())
        assert document["scenario"]["silent_ratio"] is None
        assert validate_bench_result(document) == []

    def test_time_percentiles_refuses_zero_repeats(self):
        from benchmarks._harness import time_percentiles

        with pytest.raises(ValueError, match="wall_clock=None"):
            time_percentiles(lambda: None, repeats=0)
