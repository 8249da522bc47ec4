"""Tests for the batched, client-fed SMR layer (exactly-once commits):
the pipelined replica at ``window=1``, the ``batched_smr`` row."""

from repro.adversary.behaviors import SilentBehavior
from repro.apps.clients import ClientWorkload, Command, assign_queues
from repro.apps.pipelined import run_pipelined_smr
from repro.config import SystemConfig


def w(client, ops, replicas):
    return ClientWorkload(client=client, ops=tuple(ops), replicas=tuple(replicas))


class TestQueueAssignment:
    def test_fan_out_duplicates_to_all_targets(self, config5):
        workload = w("alice", [("set", "a", 1)], replicas=(0, 1, 2))
        queues = assign_queues([workload], config5)
        command = Command("alice", 0, ("set", "a", 1))
        assert queues[0] == [command]
        assert queues[1] == [command]
        assert queues[2] == [command]
        assert queues[3] == []

    def test_sequence_numbers(self):
        workload = w("bob", [("set", "x", 1), ("set", "x", 2)], replicas=(0,))
        commands = workload.commands()
        assert [c.seq for c in commands] == [0, 1]
        assert commands[0].key == ("bob", 0)


class TestExactlyOnce:
    def test_fanned_out_commands_commit_once(self, config5):
        """A command submitted to three replicas appears once in the log."""
        workloads = [
            w("alice", [("set", "a", 1)], replicas=(0, 1, 2)),
            w("bob", [("set", "b", 2)], replicas=(1, 2, 3)),
        ]
        result = run_pipelined_smr(config5, workloads, num_slots=5, window=1)
        outcome = result.unanimous_decision()
        keys = [c.key for c in outcome.log]
        assert sorted(keys) == [("alice", 0), ("bob", 0)]
        assert dict(outcome.state) == {"a": 1, "b": 2}

    def test_batching_packs_multiple_commands_per_slot(self, config5):
        workloads = [
            w("alice", [("set", f"k{i}", i) for i in range(4)], replicas=(0,)),
        ]
        result = run_pipelined_smr(
            config5, workloads, num_slots=5, window=1, batch_size=4
        )
        outcome = result.unanimous_decision()
        assert len(outcome.log) == 4  # all four commands
        assert len(dict(outcome.state)) == 4
        # All four fit into replica 0's single sender slot.
        batches = [
            e.get("size") for e in result.trace.named("smr_committed_batch")
        ]
        assert max(batches) == 4

    def test_batch_size_limits_slot_payload(self, config5):
        workloads = [
            w("alice", [("set", f"k{i}", i) for i in range(6)],
              replicas=(0, 1, 2, 3, 4)),
        ]
        result = run_pipelined_smr(
            config5, workloads, num_slots=5, window=1, batch_size=2
        )
        outcome = result.unanimous_decision()
        assert len(outcome.log) == 6  # 3 slots x 2 commands
        keys = [c.key for c in outcome.log]
        assert len(set(keys)) == 6  # no duplicates despite full fan-out


class TestFaultTolerance:
    def test_crashed_home_replica_covered_by_fan_out(self, config5):
        """Alice's home replica is dead, but she also submitted to two
        others — her command still commits."""
        workloads = [
            w("alice", [("set", "a", 1)], replicas=(2, 3, 4)),
        ]
        byzantine = {2: SilentBehavior()}
        result = run_pipelined_smr(
            config5, workloads, num_slots=5, window=1, byzantine=byzantine
        )
        outcome = result.unanimous_decision()
        assert dict(outcome.state) == {"a": 1}

    def test_single_home_replica_crashed_loses_command(self, config5):
        """The converse: no fan-out and a dead home replica means the
        command never commits — motivation for submitting to several."""
        workloads = [w("alice", [("set", "a", 1)], replicas=(2,))]
        byzantine = {2: SilentBehavior()}
        result = run_pipelined_smr(
            config5, workloads, num_slots=5, window=1, byzantine=byzantine
        )
        outcome = result.unanimous_decision()
        assert outcome.log == ()

    def test_states_identical_under_failures(self):
        config = SystemConfig.with_optimal_resilience(5)
        workloads = [
            w("alice", [("set", "a", 1), ("del", "missing")], replicas=(0, 1)),
            w("bob", [("set", "b", 2)], replicas=(3, 4)),
        ]
        byzantine = {1: SilentBehavior(), 4: SilentBehavior()}
        result = run_pipelined_smr(
            config, workloads, num_slots=5, window=1, byzantine=byzantine
        )
        outcome = result.unanimous_decision()
        states = {result.decisions[p].state for p in result.correct_pids}
        assert len(states) == 1
        assert dict(outcome.state) == {"a": 1, "b": 2}
