"""Unit tests for envelopes, the message pool, traces, and run results."""

import dataclasses
import pickle

import pytest

from repro.asyncnet.runner import AsyncNetwork
from repro.errors import AgreementViolation
from repro.metrics.words import WordLedger
from repro.runtime.envelope import Envelope
from repro.runtime.pool import MessagePool
from repro.runtime.result import RunResult
from repro.runtime.trace import Trace


def env(sender=0, payload="x", tick=0):
    return Envelope(
        sender=sender,
        payload=payload,
        sent_at=tick,
        delivered_at=tick + 1,
    )


class TestEnvelope:
    """The contract the hand-written ``__init__`` must keep: a frozen,
    hashable, picklable dataclass of four fields.  The receiver is not
    one of them: the inbox a copy sits in says who received it."""

    def test_fields_are_unchanged(self):
        assert [f.name for f in dataclasses.fields(Envelope)] == [
            "sender", "payload", "sent_at", "delivered_at",
        ]
        e = Envelope(0, "x", 2, 3)
        assert (e.sender, e.payload, e.sent_at, e.delivered_at) == (0, "x", 2, 3)
        assert not hasattr(e, "receiver")

    def test_assignment_raises(self):
        e = env()
        with pytest.raises(dataclasses.FrozenInstanceError):
            e.sender = 3
        with pytest.raises(dataclasses.FrozenInstanceError):
            del e.payload

    def test_equal_fields_equal_envelopes_and_hashes(self):
        assert env() == env() and hash(env()) == hash(env())
        assert env() is not env()
        assert env(payload="y") != env()
        assert len({env(), env(), env(sender=2)}) == 2

    def test_pickle_round_trip(self):
        e = env(payload=("vote", 7))
        assert pickle.loads(pickle.dumps(e)) == e

    def test_a_pickled_five_field_envelope_loads_without_its_receiver(self):
        """Envelopes pickled while they named their receiver (older WAL
        ``inbox`` frames) load, and the receiver is dropped: these bytes
        are ``pickle.dumps(Envelope(0, 3, ("vote", 7), 2, 3))`` from the
        five-field class."""
        legacy = (
            b"\x80\x04\x95y\x00\x00\x00\x00\x00\x00\x00\x8c\x16"
            b"repro.runtime.envelope\x94\x8c\x08Envelope\x94\x93\x94)\x81"
            b"\x94}\x94(\x8c\x06sender\x94K\x00\x8c\x08receiver\x94K\x03"
            b"\x8c\x07payload\x94\x8c\x04vote\x94K\x07\x86\x94\x8c\x07"
            b"sent_at\x94K\x02\x8c\x0cdelivered_at\x94K\x03ub."
        )
        loaded = pickle.loads(legacy)
        assert loaded == Envelope(0, ("vote", 7), 2, 3)
        assert not hasattr(loaded, "receiver")

    def test_replace(self):
        e = env()
        moved = dataclasses.replace(e, sender=4, delivered_at=9)
        assert moved == Envelope(4, "x", 0, 9)
        assert e == env()


class TestMessagePool:
    def test_take_removes_matches(self):
        pool = MessagePool()
        pool.extend([env(payload="a"), env(payload="b"), env(payload="a")])
        taken = pool.take(lambda e: e.payload == "a")
        assert [e.payload for e in taken] == ["a", "a"]
        assert len(pool) == 1

    def test_take_payloads_by_type(self):
        pool = MessagePool()
        pool.extend([env(payload=1), env(payload="s"), env(payload=2)])
        taken = pool.take_payloads(int)
        assert [e.payload for e in taken] == [1, 2]
        assert [e.payload for e in pool] == ["s"]

    def test_take_payloads_with_predicate(self):
        pool = MessagePool()
        pool.extend([env(payload=1, sender=0), env(payload=2, sender=3)])
        taken = pool.take_payloads(int, lambda e: e.sender == 3)
        assert [e.payload for e in taken] == [2]

    def test_peek_does_not_remove(self):
        pool = MessagePool()
        pool.extend([env(payload="a")])
        assert len(pool.peek(lambda e: True)) == 1
        assert len(pool) == 1

    def test_preserves_order(self):
        pool = MessagePool()
        pool.extend([env(payload=i) for i in range(5)])
        assert [e.payload for e in pool.take(lambda e: True)] == [0, 1, 2, 3, 4]


class TestTrace:
    def test_emit_and_query(self):
        trace = Trace()
        trace.emit(tick=1, pid=0, scope="top", name="decided", value=3)
        trace.emit(tick=2, pid=1, scope="top/fb", name="decided", value=3)
        trace.emit(tick=2, pid=1, scope="top/fb", name="other")
        assert trace.count("decided") == 2
        assert trace.any("other")
        assert not trace.any("missing")
        assert len(list(trace.by_pid(1))) == 2
        assert trace.scopes() == {"top", "top/fb"}

    def test_event_data_access(self):
        trace = Trace()
        trace.emit(tick=0, pid=0, scope="s", name="e", a=1, b="x")
        event = trace.events[0]
        assert event.get("a") == 1
        assert event.get("b") == "x"
        assert event.get("missing", "d") == "d"


class TestRunResult:
    def _result(self, config5, decisions, corrupted=frozenset()):
        return RunResult(
            config=config5,
            decisions=decisions,
            corrupted=frozenset(corrupted),
            ledger=WordLedger(),
            trace=Trace(),
            ticks=10,
        )

    def test_unanimous(self, config5):
        result = self._result(config5, {p: "v" for p in range(5)})
        assert result.unanimous_decision() == "v"

    def test_disagreement_raises(self, config5):
        decisions = {p: "v" for p in range(5)}
        decisions[3] = "w"
        result = self._result(config5, decisions)
        with pytest.raises(AgreementViolation):
            result.unanimous_decision()

    def test_missing_decision_raises(self, config5):
        result = self._result(config5, {p: "v" for p in range(4)})
        with pytest.raises(AgreementViolation):
            result.unanimous_decision()

    def test_corrupted_excluded_from_agreement(self, config5):
        decisions = {p: "v" for p in range(4)}
        result = self._result(config5, decisions, corrupted={4})
        assert result.unanimous_decision() == "v"
        assert result.f == 1
        assert result.correct_pids == [0, 1, 2, 3]

    def test_fallback_flag_reads_trace(self, config5):
        result = self._result(config5, {p: "v" for p in range(5)})
        assert not result.fallback_was_used()
        result.trace.emit(
            tick=3, pid=0, scope="weak_ba/fallback", name="fallback_started"
        )
        assert result.fallback_was_used()

    # The asyncio/TCP runtimes return the same RunResult, built by
    # AsyncNetwork.result from the drivers' (pid, decision, halting
    # round) triples; the agreement surface must behave identically.

    def _async_result(self, config5, decisions, corrupted=frozenset()):
        network = AsyncNetwork(config5)
        network.corrupted = set(corrupted)
        outcomes = [(pid, value, 3 + pid) for pid, value in decisions.items()]
        return network.result(outcomes, elapsed=0.1)

    def test_async_built_unanimous(self, config5):
        result = self._async_result(config5, {p: "v" for p in range(5)})
        assert isinstance(result, RunResult)
        assert result.unanimous_decision() == "v"
        assert result.halted_at == {p: 3 + p for p in range(5)}
        assert result.ticks == 8  # last round reached + 1
        assert result.elapsed == 0.1

    def test_async_built_disagreement_raises(self, config5):
        decisions = {p: "v" for p in range(5)}
        decisions[2] = "w"
        with pytest.raises(AgreementViolation):
            self._async_result(config5, decisions).unanimous_decision()

    def test_async_built_missing_decision_raises(self, config5):
        with pytest.raises(AgreementViolation):
            self._async_result(config5, {0: "v"}).unanimous_decision()

    def test_async_built_corrupted_excluded(self, config5):
        result = self._async_result(
            config5, {p: "v" for p in range(4)}, corrupted={4}
        )
        assert result.unanimous_decision() == "v"
        assert result.f == 1
        assert result.correct_pids == [0, 1, 2, 3]
