"""Input generation is a pure function of ``--seed``; the tables that
must agree with each other do."""

import json
import os

import pytest

import summary
import workloads
from conftest import ROOT


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_inputs_are_a_pure_function_of_the_seed(workload):
    for pass_index in (0, 1, 5):
        first = workloads.pass_ops(workload, 11, pass_index)
        again = workloads.pass_ops(workload, 11, pass_index)
        assert first == again
        assert first is not again


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_another_seed_changes_contents_but_not_shapes(workload):
    ours = workloads.pass_ops(workload, 11, 1)
    theirs = workloads.pass_ops(workload, 12, 1)
    assert [(op.kind, op.tag, op.limit_s) for op in ours] == [
        (op.kind, op.tag, op.limit_s) for op in theirs
    ]
    assert [op.seed for op in ours] != [op.seed for op in theirs]
    if workload != "mc_explore":  # its only seeded inputs are the walk seeds
        assert [op.args for op in ours] != [op.args for op in theirs]


def test_op_seeds_are_strided_and_unique_across_passes():
    seen = set()
    for pass_index in range(4):
        ops = workloads.pass_ops("sim_adaptive", 7, pass_index)
        assert len(ops) == 13
        for offset, op in enumerate(ops):
            assert op.op_id == pass_index * 13 + offset
            assert op.seed == 7 * 1_000_003 + op.op_id
            seen.add(op.seed)
    assert len(seen) == 4 * 13


def test_the_op_mixes_are_the_issues():
    def mix(workload):
        ops = workloads.pass_ops(workload, 1, 1)
        return sorted((op.kind, op.tag) for op in ops)

    assert mix("sim_fallback") == [
        ("cohen_strong_ba", "n31_f3"), ("fallback_ba", "n31_f0"),
        ("weak_ba", "n101_f50"), ("weak_ba", "n31_f15"), ("weak_ba", "n51_f25"),
    ]
    assert [k for k, _ in mix("sim_adaptive")].count("civit_strong_ba") == 4
    assert {t for _, t in mix("sim_adaptive")} == {
        "n101_f0", "n101_f1", "n101_f12", "n101_f25"}
    assert mix("smr_wal") == sorted(
        [("smr", "memory")] * 2 + [("smr", "never")] * 2 + [("smr", "batch")] * 2
        + [("smr", "always")] + [("crash_recover", "")] * 2
    )
    assert mix("net_soak") == [
        ("async_weak_ba", ""), ("soak_instance", "smr"), ("soak_instance", "weak_ba")]
    # Ten passes of mc_explore are the issue's 10 proofs, 6000 history
    # runs, 2 x 2500 walks and 4000 civit runs.
    caps = {op.kind: op.args.get("max_runs", op.args.get("runs"))
            for op in workloads.pass_ops("mc_explore", 1, 1)}
    assert caps == {"mc_proof": 100_000, "mc_history": 600, "mc_random": 250,
                    "mc_civit": 400}
    assert workloads.ISSUE_PASSES["mc_explore"] == 10


def test_random_walks_never_share_a_seed():
    starts = [
        op.args["walk_seed"]
        for pass_index in range(3)
        for op in workloads.pass_ops("mc_explore", 11, pass_index)
        if op.kind == "mc_random"
    ]
    spans = sorted((s, s + 250) for s in starts)
    assert all(a[1] <= b[0] for a, b in zip(spans, spans[1:]))


def test_every_smr_command_can_commit_exactly_once():
    (op, *_) = workloads.pass_ops("smr_wal", 5, 2)
    clients = op.args["clients"]
    assert sum(len(c["ops"]) for c in clients) == 80
    per_replica = {}
    for client in clients:
        (home,) = client["replicas"]
        per_replica[home] = per_replica.get(home, 0) + len(client["ops"])
    shape = op.args["shape"]
    slots_led = shape["num_slots"] // shape["n"]
    assert per_replica == {pid: slots_led * shape["batch_size"] for pid in range(5)}


def test_unknown_workload_is_refused():
    with pytest.raises(ValueError, match="unknown workload"):
        workloads.pass_ops("nope", 1, 0)


def test_benchmark_json_matches_the_code():
    import run

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    assert contract["command"] == ["python3", "perfledger/run.py"]
    assert contract["paths"] == ["perfledger"]
    assert contract["run_seconds"] == run.RUN_SECONDS
    assert {w["name"]: w["why"] for w in contract["workloads"]} == workloads.WORKLOADS
    assert {
        m["name"]: (m["unit"], m["better"], m["bound"]) for m in contract["end_to_end"]
    } == summary.SLOTS
    assert {m["name"]: m["unit"] for m in contract["per_layer"]} == summary.PER_LAYER_UNITS
    assert all(len(w["why"]) <= 200 for w in contract["workloads"])
    assert set(summary.END_TO_END) == set(workloads.WORKLOADS)
    for slots in summary.END_TO_END.values():
        assert set(slots) == set(summary.SLOTS) - {"peak_rss_mb", "setup_s"}


def test_trajectory_points_resolve_every_metric():
    """A later comparison against a committed point must be able to say
    ``worse``: the point was not recorded on an unsteady machine, and no
    metric's spread between its own runs exceeds the metric's bound."""
    trajectory = os.path.join(ROOT, "perfledger", "trajectory")
    for name in sorted(os.listdir(trajectory)):
        with open(os.path.join(trajectory, name)) as handle:
            point = json.load(handle)
        assert not point["noisy"], name
        assert set(point["workloads"]) == set(workloads.WORKLOADS)
        for workload, part in point["workloads"].items():
            assert part["ops"]["failed"] == 0, (name, workload)
            for metric, entry in part["end_to_end"].items():
                assert entry["spread"] <= entry["bound"], (name, workload, metric)
