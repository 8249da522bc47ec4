"""One pass of every workload through the Python API, end to end.

Slow for a unit test (about a minute: it really runs n=101 decisions,
two TCP soak instances and 2 277 schedules, each once untraced and once
under the profiler), which is why tier-1 does not collect it.
"""

import json
import os
import tempfile

import pytest

import adapters
import compare
import measure
import run
import summary
import workloads


def test_layers_and_watched_functions_exist_in_the_program():
    packages = {
        name for name in os.listdir(adapters.REPRO_ROOT)
        if os.path.isfile(os.path.join(adapters.REPRO_ROOT, name, "__init__.py"))
    }
    assert set(summary.LAYERS) == packages - {"analysis"}
    assert set(adapters.WATCHED_FUNCTIONS) >= set(summary.CALL_COUNTS)
    for tail, _ in adapters.WATCHED_FUNCTIONS.values():
        assert os.path.isfile(os.path.join(adapters.REPRO_ROOT, tail)), tail


@pytest.fixture(scope="module")
def document(tmp_path_factory):
    scratch = tmp_path_factory.mktemp("perfledger")
    saved = tempfile.tempdir
    tempfile.tempdir = str(scratch)  # the soak worker's WALs
    try:
        parts = {}
        for workload in workloads.WORKLOADS:
            child = measure.measure(
                workload, 5, seconds=0, min_passes=1, trace=True,
                scratch=str(scratch / "wal"),
                trace_path=str(scratch / f"trace-{workload}.jsonl"),
            )
            untraced = run.digest(workload, [[child]], trace=False)
            traced = run.digest(workload, [[child]], trace=True)
            parts[workload] = run.entry(workload, untraced, traced)
    finally:
        tempfile.tempdir = saved
    return {
        "schema": "perfledger/1", "seed": 5, "seconds": 0, "runs": 1, "noisy": False,
        "environment": {"git_rev": None, "calib_s_start": 1.0, "calib_s_end": 1.0},
        "workloads": parts,
    }, scratch


def test_every_op_is_verified_and_counts_repeat_under_the_profiler(document):
    doc, _ = document
    for workload, part in doc["workloads"].items():
        assert part["problems"] == [], workload
        assert part["end_to_end"]["fail_ratio"]["value"] == 0
        assert part["ops"]["attempted"] > 0


def test_shares_sum_to_one_and_land_where_the_issue_sized_them(document):
    doc, _ = document

    def share(workload, *layers):
        per_layer = doc["workloads"][workload]["per_layer"]
        return sum(per_layer[f"{layer}.self_share"]["value"] for layer in layers)

    for workload, part in doc["workloads"].items():
        total = sum(part["per_layer"][name]["value"] for name in summary.SHARE_NAMES)
        assert total == pytest.approx(1.0), workload
        assert part["per_layer"]["trace_overhead_x"]["value"] > 0.9
    assert share("sim_fallback", "crypto", "metrics", "fallback") > 0.4
    assert share("sim_adaptive", "crypto", "metrics", "fallback") < 0.15
    assert doc["workloads"]["net_soak"]["per_layer"]["idle.wait_share"]["value"] > 0.8
    smr = doc["workloads"]["smr_wal"]["per_layer"]
    assert smr["recovery.wal_overhead_always_x"]["value"] > 2
    assert smr["recovery.self_share"]["value"] > 0.05


def test_every_per_layer_metric_is_declared_and_reported_somewhere(document):
    doc, _ = document
    reported = set()
    for part in doc["workloads"].values():
        assert set(part["per_layer"]) <= set(summary.PER_LAYER_UNITS)
        reported |= set(part["per_layer"])
    assert reported == set(summary.PER_LAYER_UNITS)


def test_spans_are_written_one_per_op_with_children_summing_to_the_span(document):
    _, scratch = document
    for workload in workloads.WORKLOADS:
        with open(scratch / f"trace-{workload}.jsonl") as handle:
            spans = [json.loads(line) for line in handle]
        assert len(spans) == len(workloads.pass_ops(workload, 5, 1))
        for span in spans:
            assert span["workload"] == workload
            assert {"kind", "op_id", "seed", "start", "end"} <= set(span)
            total = sum(child["self_s"] for child in span["children"])
            assert total == pytest.approx(span["end"] - span["start"], rel=1e-6)


def test_compare_accepts_the_document_against_itself(document, tmp_path, capsys):
    doc, _ = document
    path = tmp_path / "BENCH.json"
    path.write_text(json.dumps(doc))
    assert compare.main([str(path), str(path)]) == 0
    out = capsys.readouterr().out
    assert "exact counts: all equal" in out
    assert "0 worse" in out
    for workload in workloads.WORKLOADS:
        assert workload in out


def test_compare_flags_a_regression_and_a_changed_count(document, tmp_path, capsys):
    doc, _ = document
    slower = json.loads(json.dumps(doc))
    metric = slower["workloads"]["sim_fallback"]["end_to_end"]["worst_n101_s"]
    metric["value"] *= 1.0 + 2 * metric["bound"]
    slower["workloads"]["sim_fallback"]["per_layer"]["metrics.words_per_op"]["value"] += 1
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(doc))
    b.write_text(json.dumps(slower))
    assert compare.main([str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "sim_fallback metrics.words_per_op" in out
    assert "1 worse" in out
