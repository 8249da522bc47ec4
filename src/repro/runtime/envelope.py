"""Envelopes: messages in flight.

Links are *authenticated*: the receiver learns the true sender id (the
simulator stamps it; a Byzantine process cannot spoof another process's
id on the wire, matching the paper's reliable-link assumption).  Payload
authenticity beyond the channel — "this value originated at the sender"
— is the job of signatures, which Byzantine processes cannot forge.

An envelope does not name its receiver: the inbox a copy sits in
already says who received it, so every reader of one multicast can hold
the same envelope object.  A host that needs a copy's receiver outside
an inbox (a recorded run, a transport queue or frame) keeps it next to
the envelope.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import ProcessId


@dataclass(frozen=True)
class Envelope:
    """One delivered message.  Every reader of one delivery-wheel entry
    (a whole multicast on the simulator's fan-out path) holds the same
    envelope object."""

    sender: ProcessId
    payload: object
    sent_at: int
    delivered_at: int

    def __init__(
        self,
        sender: ProcessId,
        payload: object,
        sent_at: int,
        delivered_at: int,
    ) -> None:
        # Filling the instance dict directly skips the four
        # ``object.__setattr__`` calls of the generated frozen
        # ``__init__``.  ``@dataclass`` keeps a class-defined
        # ``__init__``; equality, hashing and the frozen ``__setattr__``
        # are still generated.
        fields = self.__dict__
        fields["sender"] = sender
        fields["payload"] = payload
        fields["sent_at"] = sent_at
        fields["delivered_at"] = delivered_at

    def __repr__(self) -> str:  # compact traces
        return (
            f"Envelope({self.sender} @{self.delivered_at}: "
            f"{type(self.payload).__name__})"
        )
