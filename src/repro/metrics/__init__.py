"""Word-complexity accounting (the paper's Section 2 complexity model)."""

from repro.metrics.words import (
    WordBill,
    WordLedger,
    WordRecord,
    payload_phase,
    payload_signatures,
    payload_words,
)

__all__ = [
    "WordBill",
    "WordLedger",
    "WordRecord",
    "payload_words",
    "payload_signatures",
    "payload_phase",
]
