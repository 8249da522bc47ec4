"""The paper's protocols: adaptive BB, adaptive weak BA, fast strong BA."""

from repro.core.values import BOTTOM, UNDECIDED, Bottom, Undecided
from repro.core.validity import (
    AlwaysValid,
    BroadcastValidity,
    CertifiedValidity,
    CertifiedValue,
    ExternalValidity,
    ValidityPredicate,
)
from repro.core.adaptive_strong_ba import (
    adaptive_strong_ba_protocol,
    run_adaptive_strong_ba,
)
from repro.core.byzantine_broadcast import (
    byzantine_broadcast_protocol,
    run_byzantine_broadcast,
)
from repro.core.strong_ba import run_strong_ba, strong_ba_protocol
from repro.core.weak_ba import run_weak_ba, weak_ba_protocol

__all__ = [
    "BOTTOM",
    "UNDECIDED",
    "Bottom",
    "Undecided",
    "ValidityPredicate",
    "AlwaysValid",
    "BroadcastValidity",
    "CertifiedValidity",
    "CertifiedValue",
    "ExternalValidity",
    "byzantine_broadcast_protocol",
    "run_byzantine_broadcast",
    "weak_ba_protocol",
    "run_weak_ba",
    "strong_ba_protocol",
    "run_strong_ba",
    "adaptive_strong_ba_protocol",
    "run_adaptive_strong_ba",
]
