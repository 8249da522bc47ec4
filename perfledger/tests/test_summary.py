"""The percentile rule, the spread, and slots from synthetic samples."""

import statistics

import pytest

import summary


@pytest.mark.parametrize(
    "count, expected",
    [(13, 50), (39, 50), (40, 75), (99, 75), (100, 90), (104, 90), (5000, 90)],
)
def test_no_percentile_without_ten_samples_beyond_it(count, expected):
    assert summary.supported_percentile(count) == expected


def test_percentile_is_nearest_rank():
    samples = [float(i) for i in range(1, 101)]
    assert summary.percentile(samples, 90) == 90.0
    assert summary.percentile(samples, 75) == 75.0
    assert summary.percentile(samples, 50) == statistics.median(samples)
    assert summary.percentile([3.0], 90) == 3.0


def test_spread_is_iqr_over_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    low, _, high = statistics.quantiles(values, n=4)
    assert summary.spread(values) == pytest.approx((high - low) / 14.5)
    assert summary.spread([5.0]) == 0.0


def sample(pass_index, kind, elapsed, tag="", units=1, op_id=0, **counts):
    return {"pass": pass_index, "kind": kind, "tag": tag, "elapsed_s": elapsed,
            "units": units, "op_id": op_id, "counts": counts, "facts": {}}


def test_sim_fallback_slots():
    samples = []
    for p, worst in ((1, 2.0), (2, 2.2), (3, 9.0)):  # pass 3 stalled
        samples += [
            sample(p, "weak_ba", 0.2, "n31_f15"),
            sample(p, "weak_ba", worst, "n101_f50"),
            sample(p, "fallback_ba", 0.3, "n31_f0"),
        ]
    slots = summary.end_to_end("sim_fallback", samples, [3.0, 2.0, 4.0], 60.5)
    assert slots["ops_per_s"]["value"] == pytest.approx(3 / 2.7)  # median pass
    assert slots["op_p50_s"]["value"] == 0.3
    assert slots["second_op_s"]["value"] == 2.2  # the n=101 f=50 op only
    assert slots["second_op_s"]["samples"] == 3
    assert slots["setup_s"] == {"value": 3.0, "unit": "s", "samples": 3}
    assert slots["peak_rss_mb"]["value"] == 60.5


def test_sim_adaptive_tail_needs_a_hundred_samples():
    few = [sample(1, "bb", 0.1 * (i + 1)) for i in range(13)]
    many = [sample(p, "bb", 0.01 * (i + 1)) for p in range(1, 9) for i in range(13)]
    assert summary.end_to_end("sim_adaptive", few, [1.0], 1.0)["second_op_s"][
        "percentile"] == 50
    slot = summary.end_to_end("sim_adaptive", many, [1.0], 1.0)["second_op_s"]
    assert slot["percentile"] == 90 and slot["samples"] == 104


def test_smr_slots_avoid_the_disk_and_keep_their_slot_names():
    samples = [
        sample(1, "smr", 0.1, "memory", units=80),
        sample(1, "smr", 0.16, "never", units=80),
        sample(1, "smr", 0.25, "batch", units=80),
        sample(1, "smr", 0.8, "always", units=80),
        sample(1, "crash_recover", 0.04),
    ]
    slots = summary.end_to_end("smr_wal", samples, [1.0], 1.0)
    assert set(slots) == set(summary.SLOTS)
    assert slots["ops_per_s"]["value"] == pytest.approx(500.0)  # fsync="never"
    assert slots["op_p50_s"]["value"] == 0.04
    assert slots["second_op_s"]["value"] == 0.1  # memory-only
    # ISSUE 11 names none of the three, so the document invents no name.
    assert set(summary.named("smr_wal", slots)) == set(summary.SLOTS)


def test_layer_shares_sum_to_one():
    spans = [
        {"children": [{"layer": "crypto", "self_s": 1.0}, {"layer": "idle.wait", "self_s": 0.5}]},
        {"children": [{"layer": "runtime", "self_s": 2.5}, {"layer": "python.other", "self_s": 1.0}]},
    ]
    parts = summary.layer_shares(spans)
    assert set(parts) == set(summary.SHARE_NAMES)
    assert sum(parts.values()) == pytest.approx(1.0)
    assert parts["runtime.self_share"] == pytest.approx(0.5)
    assert parts["idle.wait_share"] == pytest.approx(0.1)
    assert parts["mc.self_share"] == 0.0


def test_combine_reports_the_median_run_and_the_spread_between_runs():
    runs = [
        {"ops_per_s": {"value": v, "unit": "1/s", "samples": 4}} for v in (9.0, 10.0, 12.0)
    ]
    merged = summary.combine(runs)["ops_per_s"]
    assert merged["value"] == 10.0
    assert merged["samples"] == 12 and merged["runs"] == 3
    assert merged["spread"] == pytest.approx(0.3)
    assert summary.combine(runs[:1])["ops_per_s"]["spread"] == 0.0


def test_names_of_the_result_document_carry_the_slot_bounds():
    slots = {slot: {"value": 1.0, "unit": unit} for slot, (unit, _, _) in summary.SLOTS.items()}
    net = summary.named("net_soak", slots)
    assert set(net) == {"instances_per_s", "tcp_instance_p50_s",
                        "async_decision_p50_s", "peak_rss_mb", "setup_s"}
    assert net["instances_per_s"]["better"] == "higher"
    assert net["instances_per_s"]["bound"] == summary.SLOTS["ops_per_s"][2]
    assert net["setup_s"]["better"] == "lower"
    assert set(summary.named("mc_explore", slots)) == {
        "sched_per_s", "proof_p50_s", "second_op_s", "peak_rss_mb", "setup_s"}
    worst = summary.named("sim_fallback", slots)["worst_n101_s"]
    assert worst["bound"] == summary.SLOTS["second_op_s"][2]


def raised(pass_index, kind, tag=""):
    """The sample ``measure.run_op`` keeps of an op that raised."""
    return {"pass": pass_index, "kind": kind, "tag": tag, "elapsed_s": 0.01,
            "units": 1, "op_id": 99, "failed": 1, "counts": {}, "facts": {}}


def test_per_layer_leaves_out_an_untraced_op_that_raised():
    watched = {name: {"calls": 0, "cum_s": 0.0}
               for name in (*summary.CALL_COUNTS, "recovery.flush_calls", "soak.oracle")}
    span = {"children": [{"layer": "mc", "self_s": 1.0}], "watched": watched,
            "start": 0.0, "end": 1.0}

    def mc(p):
        s = sample(p, "mc_proof", 0.5, units=777, mc_runs=777, mc_pruned=70,
                   mc_distinct_states=50, mc_truncated=0)
        return dict(s, facts={"cpu_s": 0.5})

    untraced = [mc(1), raised(1, "mc_random"), mc(2), raised(2, "mc_random")]
    out = summary.per_layer("mc_explore", untraced, untraced[:2], [mc(1)], [span], {})
    assert out["mc.runs"] == 777
    assert out["mc.cpu_s_per_1k_sched"] == pytest.approx(0.5 / 0.777)

    def smr(tag, elapsed):
        s = sample(1, "smr", elapsed, tag, units=80, words=10)
        return dict(s, facts={"wal_bytes": 8000})

    recover = dict(sample(1, "crash_recover", 0.04, words=10), facts={
        "inrun_replay_ms": 0.1, "replay_wal_ms": 1.0, "load_history_ms": 0.3})
    untraced = [smr("memory", 0.1), smr("never", 0.16), smr("batch", 0.25),
                smr("always", 0.8), raised(1, "smr", "always"), recover]
    out = summary.per_layer("smr_wal", untraced, untraced, [smr("memory", 0.2)], [span], {})
    assert out["recovery.commits_per_s_batch"] == pytest.approx(320.0)
    assert out["recovery.wal_overhead_always_x"] == pytest.approx(8.0)
    assert out["recovery.wal_bytes_per_commit"] == 100

    soak = dict(sample(1, "soak_instance", 1.0, "weak_ba", words=10), facts={
        "cpu_s": 0.03, "retries": 0, "reconnects": 2, "rejoins": 1})
    untraced = [soak, raised(1, "async_weak_ba")]
    out = summary.per_layer("net_soak", untraced, untraced, [soak], [span], {})
    assert out["soak.retries_per_instance"] == 0
    assert out["recovery.rejoins_per_instance"] == 1


def test_exact_counts_are_per_op_averages_and_mismatches_are_found():
    first = [sample(1, "bb", 0.1, op_id=13, words=600, ticks=900),
             sample(1, "weak_ba", 0.1, op_id=14, words=500, ticks=600)]
    again = [dict(s) for s in first]
    counts = summary.exact_counts(first)
    assert counts["metrics.words_per_op"] == 550
    assert counts["runtime.ticks_per_op"] == 750
    assert counts["fallback.entered_share"] == 0
    assert summary.count_mismatches(first, again) == []
    again[1] = dict(again[1], counts={"words": 501, "ticks": 600})
    (mismatch,) = summary.count_mismatches(first, again)
    assert "op 14" in mismatch


def test_which_metrics_must_repeat_exactly():
    assert summary.is_exact("sim_fallback", "metrics.words_per_op")
    assert summary.is_exact("sim_fallback", "crypto.combine_calls_per_op")
    assert summary.is_exact("mc_explore", "mc.runs")
    assert not summary.is_exact("net_soak", "crypto.combine_calls_per_op")
    assert not summary.is_exact("sim_fallback", "crypto.self_share")
    assert not summary.is_exact("sim_fallback", "trace_overhead_x")
