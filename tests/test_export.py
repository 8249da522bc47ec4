"""Tests for the JSON run exporter/loader."""

import json

import pytest

from repro.analysis.export import load_run, save_run
from repro.adversary.behaviors import SilentBehavior
from repro.core.byzantine_broadcast import run_byzantine_broadcast


@pytest.fixture
def result(config7):
    return run_byzantine_broadcast(
        config7, sender=0, value="v", byzantine={3: SilentBehavior()}
    )


class TestRoundTrip:
    def test_save_and_load(self, result, tmp_path):
        path = save_run(result, tmp_path / "run.json")
        loaded = load_run(path)
        assert loaded.n == result.config.n
        assert loaded.t == result.config.t
        assert loaded.f == result.f
        assert loaded.corrupted == result.corrupted
        assert loaded.ticks == result.ticks
        assert loaded.correct_words == result.correct_words
        assert loaded.ledger.correct_messages == result.ledger.correct_messages

    def test_ledger_aggregations_survive(self, result, tmp_path):
        loaded = load_run(save_run(result, tmp_path / "run.json"))
        assert loaded.ledger.words_by_scope() == result.ledger.words_by_scope()
        assert (
            loaded.ledger.signature_count() == result.ledger.signature_count()
        )

    def test_trace_survives(self, result, tmp_path):
        loaded = load_run(save_run(result, tmp_path / "run.json"))
        assert loaded.trace.count("decided") == result.trace.count("decided")
        assert loaded.trace.scopes() == result.trace.scopes()

    def test_decisions_exported_as_reprs(self, result, tmp_path):
        loaded = load_run(save_run(result, tmp_path / "run.json"))
        for pid in result.correct_pids:
            assert loaded.decisions[pid] == repr(result.decisions[pid])

    def test_valid_json_on_disk(self, result, tmp_path):
        path = save_run(result, tmp_path / "run.json")
        raw = json.loads(path.read_text())
        assert raw["format_version"] == 2
        assert raw["summary"]["fallback_used"] == result.fallback_was_used()

    def test_async_run_round_trips(self, config5, tmp_path):
        """asyncio/TCP runs return the simulator's ``RunResult`` (with
        ``ticks`` and ``halted_at``), so they export like any other."""
        import asyncio

        from repro.asyncnet import run_async
        from repro.core.byzantine_broadcast import byzantine_broadcast_protocol

        def factory(ctx):
            return byzantine_broadcast_protocol(ctx, 0, "v")

        sim = run_byzantine_broadcast(config5, sender=0, value="v")
        result = asyncio.run(
            run_async(config5, {p: factory for p in config5.processes})
        )
        path = save_run(result, tmp_path / "run.json")
        loaded = load_run(path)
        assert loaded.ticks == result.ticks == sim.ticks
        assert result.halted_at == sim.halted_at
        assert json.loads(path.read_text())["halted_at"] == {
            str(pid): tick for pid, tick in sim.halted_at.items()
        }
        assert loaded.correct_words == sim.correct_words

    def test_flows_work_on_loaded_runs(self, result, tmp_path):
        """Offline analysis: the flow helpers accept a loaded ledger."""
        from repro.analysis.flows import flow_matrix, words_per_tick

        loaded = load_run(save_run(result, tmp_path / "run.json"))
        matrix = flow_matrix(loaded.ledger, loaded.n)
        assert sum(sum(row) for row in matrix) == loaded.correct_words
        assert sum(words_per_tick(loaded.ledger).values()) == loaded.correct_words


class TestVersionGuard:
    def test_unknown_version_rejected(self, result, tmp_path):
        path = save_run(result, tmp_path / "run.json")
        raw = json.loads(path.read_text())
        raw["format_version"] = 99
        path.write_text(json.dumps(raw))
        with pytest.raises(ValueError):
            load_run(path)
