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
