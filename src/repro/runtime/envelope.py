"""Envelopes: messages in flight.

Links are *authenticated*: the receiver learns the true sender id (the
simulator stamps it; a Byzantine process cannot spoof another process's
id on the wire, matching the paper's reliable-link assumption).  Payload
authenticity beyond the channel — "this value originated at the sender"
— is the job of signatures, which Byzantine processes cannot forge.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import ProcessId


@dataclass(frozen=True)
class Envelope:
    """One delivered message."""

    sender: ProcessId
    receiver: ProcessId
    payload: object
    sent_at: int
    delivered_at: int

    def __init__(
        self,
        sender: ProcessId,
        receiver: ProcessId,
        payload: object,
        sent_at: int,
        delivered_at: int,
    ) -> None:
        # One envelope is built per delivered copy.  Filling the instance
        # dict directly skips the five ``object.__setattr__`` calls of the
        # generated frozen ``__init__``.  ``@dataclass`` keeps a
        # class-defined ``__init__``; equality, hashing and the frozen
        # ``__setattr__`` are still generated.
        fields = self.__dict__
        fields["sender"] = sender
        fields["receiver"] = receiver
        fields["payload"] = payload
        fields["sent_at"] = sent_at
        fields["delivered_at"] = delivered_at

    def __repr__(self) -> str:  # compact traces
        return (
            f"Envelope({self.sender}->{self.receiver} @{self.delivered_at}: "
            f"{type(self.payload).__name__})"
        )

    def mc_key(self) -> tuple:
        """Equality-faithful key for model-checker state fingerprints.

        ``repr(payload)`` is deterministic for this repo's payloads
        (frozen dataclasses of plain values) but not cheap; an envelope
        is fingerprinted once per tick it sits in flight, so the key is
        computed once and memoized on the (frozen) instance.
        """
        key = self.__dict__.get("_mc_key")
        if key is None:
            key = (self.sender, self.receiver, self.sent_at, repr(self.payload))
            object.__setattr__(self, "_mc_key", key)
        return key
