"""Tests for counterexample shrinking and the JSON replay artifact."""

import json

import pytest

from repro.errors import ModelCheckError
from repro.mc.explore import Counterexample, explore_exhaustive
from repro.mc.scenario import make_scenario
from repro.mc.shrink import (
    REPLAY_FORMAT,
    load_replay,
    replay,
    replay_artifact,
    save_replay,
    shrink,
)


def _broken_scenario(**overrides):
    params = dict(
        n=4,
        t=1,
        adversary="equivocating-leader",
        max_ticks=24,
        reorder=True,
        perm_cap=2,
        quorum_delta=-1,
    )
    params.update(overrides)
    return make_scenario("weak-ba", **params)


def _counterexample(scenario):
    result = explore_exhaustive(scenario, stop_at_first=True)
    assert not result.ok
    return result.counterexamples[0]


class TestShrink:
    def test_shrinks_padded_decisions_to_the_minimum(self):
        # The equivocation violates agreement on the canonical schedule
        # already, so any decorated decision sequence must shrink to ().
        scenario = _broken_scenario()
        padded = Counterexample(
            scenario=scenario.name,
            params=dict(scenario.params),
            decisions=(1, 0, 1, 0, 0),
            kinds=("agreement",),
            summary="padded",
            truncated=False,
        )
        shrunk = shrink(scenario, padded)
        assert shrunk.decisions == ()
        assert shrunk.original == (1, 0, 1, 0, 0)
        assert shrunk.kinds == ("agreement",)
        assert shrunk.tests > 1

    def test_shrunk_sequence_still_reproduces(self):
        scenario = _broken_scenario()
        ce = _counterexample(scenario)
        shrunk = shrink(scenario, ce)
        assert len(shrunk.decisions) <= len(ce.decisions)
        outcome = replay(replay_artifact(scenario, shrunk.decisions))
        assert {v.kind for v in outcome.report.violations} >= set(ce.kinds)

    def test_non_reproducing_counterexample_rejected(self):
        # A sound scenario cannot reproduce an "agreement" violation.
        scenario = make_scenario("weak-ba", n=4, t=1, max_ticks=12, reorder=False)
        bogus = Counterexample(
            scenario=scenario.name,
            params=dict(scenario.params),
            decisions=(),
            kinds=("agreement",),
            summary="bogus",
            truncated=False,
        )
        with pytest.raises(ModelCheckError):
            shrink(scenario, bogus)


class TestReplayArtifact:
    def test_roundtrip_through_nested_directory(self, tmp_path):
        scenario = _broken_scenario()
        artifact = replay_artifact(scenario, ())
        assert artifact["format"] == REPLAY_FORMAT
        assert artifact["scenario"] == "weak-ba"
        assert any(v["kind"] == "agreement" for v in artifact["violations"])
        path = save_replay(tmp_path / "deep" / "nested" / "ce.json", artifact)
        assert path.exists()
        assert load_replay(path) == artifact

    def test_replay_reconstructs_scenario_from_params(self, tmp_path):
        scenario = _broken_scenario()
        path = save_replay(tmp_path / "ce.json", replay_artifact(scenario, ()))
        outcome = replay(load_replay(path))
        assert any(v.kind == "agreement" for v in outcome.report.violations)

    def test_replay_detects_divergence(self):
        scenario = _broken_scenario()
        artifact = replay_artifact(scenario, ())
        artifact["violations"] = [{"kind": "word-budget", "detail": "forged"}]
        with pytest.raises(ModelCheckError, match="diverged"):
            replay(artifact)

    def test_replay_without_verify_skips_the_check(self):
        scenario = _broken_scenario()
        artifact = replay_artifact(scenario, ())
        artifact["violations"] = []
        outcome = replay(artifact, verify=False)
        assert outcome.report is not None

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "repro-mc-replay/99"}))
        with pytest.raises(ModelCheckError, match="format"):
            load_replay(path)

    def test_pruned_run_cannot_become_artifact(self):
        # replay_artifact runs without a fingerprinter, so runs never
        # prune; guard the invariant at the API level regardless.
        scenario = _broken_scenario()
        artifact = replay_artifact(scenario, ())
        assert artifact["decisions"] == []


class TestDamagedArtifacts:
    """A damaged artifact is a diagnostic naming the file and the key,
    never a raw JSONDecodeError, KeyError or TypeError."""

    def _saved(self, tmp_path):
        artifact = replay_artifact(_broken_scenario(), ())
        return artifact, save_replay(tmp_path / "ce.json", artifact)

    def test_torn_artifact(self, tmp_path):
        _, path = self._saved(tmp_path)
        path.write_text(path.read_text()[: 40])
        with pytest.raises(ModelCheckError, match=f"{path}: unreadable"):
            load_replay(path)

    def test_artifact_without_decisions(self, tmp_path):
        artifact, path = self._saved(tmp_path)
        del artifact["decisions"]
        path.write_text(json.dumps(artifact))
        with pytest.raises(ModelCheckError, match=f"{path}: .*'decisions'"):
            load_replay(path)
        with pytest.raises(ModelCheckError, match="'decisions'"):
            replay(artifact)

    def test_artifact_with_unknown_param(self, tmp_path):
        artifact, path = self._saved(tmp_path)
        artifact["params"]["gst"] = 3
        path.write_text(json.dumps(artifact))
        with pytest.raises(ModelCheckError, match=f"{path}: .*'gst'"):
            load_replay(path)
        with pytest.raises(ModelCheckError, match="'gst'"):
            replay(artifact)
