"""A message pool for round-skew-tolerant protocols.

Lemma 18 of the paper runs the fallback with round length ``2 * delta``
because correct processes may enter it up to ``delta`` apart; a round-
``r`` message can therefore arrive while the receiver is still in round
``r - 1``.  Protocols written against :class:`MessagePool` simply feed
every delivered envelope into the pool and *take* messages matching the
round they are logically in — earlier-than-expected messages wait in the
pool instead of being dropped, realizing Lemma 18's acceptance window.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.runtime.envelope import Envelope


def parallel_map(
    fn: Callable[[Any], Any], items: Sequence[Any], jobs: int
) -> list[Any]:
    """Map ``fn`` over ``items`` with up to ``jobs`` worker processes.

    The point-level fan-out primitive of the analysis sweeps.  ``fn``
    and every item must be
    picklable (a module-level function, not a closure).  ``jobs <= 1``
    or a single item runs serially in-process — no worker startup cost
    and identical semantics, so callers need no special-casing and the
    serial path stays the deterministic reference.

    Results come back in input order regardless of completion order.
    """
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    import multiprocessing

    workers = min(jobs, len(items))
    with multiprocessing.Pool(processes=workers) as pool:
        return pool.map(fn, items)


def _matcher(
    predicate: Callable[[Envelope], bool] | None, fields: dict[str, object]
) -> Callable[[Envelope], bool] | None:
    """``predicate`` narrowed to envelopes whose payload attributes equal
    ``fields`` (``None``: no condition at all)."""
    if not fields:
        return predicate
    get = attrgetter(*fields)
    want = tuple(fields.values())
    if len(want) == 1:
        (want,) = want
    if predicate is None:
        return lambda e: get(e.payload) == want
    return lambda e: get(e.payload) == want and predicate(e)


class MessagePool:
    """Holds delivered envelopes until the protocol consumes them.

    Envelopes are bucketed by payload type — protocols take by type, and
    a pool full of other sessions' traffic must not be rescanned on every
    take — and stamped with an arrival number, so takes spanning several
    buckets, :meth:`peek` and iteration still see arrival order."""

    def __init__(self) -> None:
        self._buckets: dict[type, list[tuple[int, Envelope]]] = {}
        self._plain = True
        """No bucketed payload type has a base class (but ``object``): a
        take of an ordinary class then reads exactly one bucket."""
        self._arrivals = 0
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[Envelope]:
        return iter(self.peek(lambda envelope: True))

    def extend(self, envelopes: Iterable[Envelope]) -> None:
        buckets = self._buckets
        arrival = self._arrivals
        for envelope in envelopes:
            kind = type(envelope.payload)
            bucket = buckets.get(kind)
            if bucket is None:
                bucket = buckets[kind] = []
                self._plain = self._plain and len(kind.__mro__) == 2
            bucket.append((arrival, envelope))
            arrival += 1
        self._size += arrival - self._arrivals
        self._arrivals = arrival

    def _split(
        self, kind: type, predicate: Callable[[Envelope], bool] | None
    ) -> list[tuple[int, Envelope]]:
        """Remove and return one bucket's matching entries."""
        bucket = self._buckets[kind]
        if predicate is None:
            taken, kept = bucket, []
        else:
            taken, kept = [], []
            for entry in bucket:
                (taken if predicate(entry[1]) else kept).append(entry)
        if taken:
            self._buckets[kind] = kept
            self._size -= len(taken)
        return taken

    def take(self, predicate: Callable[[Envelope], bool]) -> list[Envelope]:
        """Remove and return every pooled envelope matching ``predicate``."""
        matched: list[tuple[int, Envelope]] = []
        for kind in self._buckets:
            matched += self._split(kind, predicate)
        matched.sort()  # by arrival: the numbers are unique
        return [envelope for _, envelope in matched]

    def take_payloads(
        self,
        payload_type: type,
        predicate: Callable[[Envelope], bool] | None = None,
        **fields: object,
    ) -> list[Envelope]:
        """Remove and return envelopes whose payload is ``payload_type``
        with every attribute named in ``fields`` equal to its value
        (``session=..., phase=...``), and that ``predicate`` accepts."""
        if self._plain and type(payload_type) is type and payload_type is not object:
            if payload_type not in self._buckets:
                return []
            match = _matcher(predicate, fields)
            return [envelope for _, envelope in self._split(payload_type, match)]
        match = _matcher(predicate, fields)
        return self.take(
            lambda e: isinstance(e.payload, payload_type)
            and (match is None or match(e))
        )

    def peek(self, predicate: Callable[[Envelope], bool]) -> list[Envelope]:
        """Return matching envelopes without removing them."""
        pooled = (e for bucket in self._buckets.values() for e in bucket)
        return [e for _, e in sorted(e for e in pooled if predicate(e[1]))]
