"""Hostile payloads: well-typed messages with one field of garbage.

A Byzantine process may send anything, but it cannot forge signatures,
so a correct process must ignore a malformed message and carry on.  Every
frozen payload dataclass of ``repro.core``, ``repro.fallback`` and
``repro.protocols.civit`` is sent here by a Byzantine process in the
session of each table row that reads it, with one field at a time
replaced by a list, a dict, a string or ``None``.  Every run must
finish, and the correct processes must still agree on a valid decision.

The named tests below pin the crashes this battery was written for: an
unencodable value reaching a verifier, an unhashable value keying a
share collector, a signature chain that is not a tuple of signatures,
and a payload whose word accounting raises while it is billed.
"""

import dataclasses
import importlib
import pkgutil

import pytest

from repro.config import SystemConfig
from repro.core.strong_ba import (
    SbaDecideShare,
    SbaInput,
    decide_label,
    propose_label,
)
from repro.core.validity import IDK_LABEL
from repro.core.weak_ba import WbaPropose, WbaVote
from repro.crypto.certificates import QuorumCertificate
from repro.crypto.signatures import Signature, SignedValue, sign_value
from repro.crypto.threshold import ThresholdSignature
from repro.errors import WordAccountingError
from repro.fallback.dolev_strong import SignatureChain
from repro.metrics.words import WordLedger
from repro.protocols.table import PROTOCOLS, run_protocol, string_validity
from repro.verify import verify_run

GARBAGE = ([1], {"x": 1}, "junk", None)

N = 5
BYZANTINE = 1
"""Leads phase 1 (``leader_of_phase(j) = j mod n``) and is shielded by
no row: not BB's or Dolev–Strong's sender, not Algorithm 5's leader."""

WBA_SESSIONS = {
    "weak_ba": "wba",
    "bb": "bb/wba",
    "adaptive_strong_ba": "asba/wba",
    "civit_strong_ba": "civit/wba",
    "civit_adaptive_strong_ba": "civit-asba/wba",
}
FALLBACK_PID = 3
"""In the recursive BA at ``n = 5`` the second half-committee is
``(3, 4)``: pid 3 reports for it and leads its size-2 base case."""

READERS = {
    **{
        name: WBA_SESSIONS
        for name in (
            "WbaPropose", "WbaVote", "WbaCommitInfo", "WbaCommitCert",
            "WbaDecideShare", "WbaFinalize", "WbaHelpReq", "WbaHelp",
            "WbaFallbackCert",
        )
    },
    **{
        name: {"bb": "bb"}
        for name in (
            "BbSenderValue", "BbHelpReq", "BbValueReply", "BbIdkReply",
            "BbPhaseResult",
        )
    },
    **{
        name: {"strong_ba": "sba"}
        for name in (
            "SbaInput", "SbaPropose", "SbaDecideShare", "SbaDecideCert",
            "SbaFallback",
        )
    },
    **{
        name: {
            "adaptive_strong_ba": "asba",
            "civit_strong_ba": "civit",
            "civit_adaptive_strong_ba": "civit-asba",
        }
        for name in ("SbaCertRequest", "SbaInputShare", "SbaInputCert")
    },
    **{
        name: {"recursive_ba": "fallback/A/gc"}
        for name in ("GcClaim", "GcSupport", "GcLockShare", "GcLockCert")
    },
    "CommitteeReport": {"recursive_ba": "fallback/B/rep"},
    "PairProposal": {"recursive_ba": "fallback/B/rec"},
    "SignatureChain": {"dolev_strong": None},
    "PkPreference": {"phase_king": "pk"},
    "PkKingValue": {"phase_king": "pk"},
    "CertifiedValue": {"civit_strong_ba": None},
}
"""Payload class name -> ``{table row: session it is read in}``."""

INBOX_ROWS = frozenset({"dolev_strong", "phase_king"})
"""Rows that read each round's inbox instead of a message pool: their
hostile copies are resent every tick, so every round sees them."""

PHASE_FIELDS = frozenset({"phase", "view", "level", "proof_phase"})


def payload_classes():
    """Every frozen dataclass with fields defined in the three packages."""
    for package in ("repro.core", "repro.fallback", "repro.protocols.civit"):
        for info in pkgutil.iter_modules(importlib.import_module(package).__path__):
            module = importlib.import_module(f"{package}.{info.name}")
            for obj in vars(module).values():
                if (
                    isinstance(obj, type)
                    and obj.__module__ == module.__name__
                    and dataclasses.is_dataclass(obj)
                    and obj.__dataclass_params__.frozen
                    and dataclasses.fields(obj)
                ):
                    yield obj


CLASSES = {cls.__name__: cls for cls in payload_classes()}


def config_for(row):
    # Phase king needs n >= 4t + 1; every other row tolerates t < n / 2.
    return SystemConfig(n=N, t=1 if row == "phase_king" else 2)


def byzantine_pid(row):
    return FALLBACK_PID if row == "recursive_ba" else BYZANTINE


class Scripted:
    """Broadcasts ``make(api)``'s payloads at tick 0, or at every tick."""

    def __init__(self, make, every_tick=False):
        self._make = make
        self._every_tick = every_tick
        self._payloads = None

    def step(self, api):
        if self._payloads is None:
            self._payloads = self._make(api)
        elif not self._every_tick:
            return
        for payload in self._payloads:
            api.broadcast(payload)


def run_row(row, behavior, pid=BYZANTINE):
    """Run table row ``row`` with ``behavior`` at ``pid``; every correct
    process proposes the row's default proposal."""
    config = config_for(row)
    entry = PROTOCOLS[row]
    metas = entry.metas(
        [p for p in config.processes if p != pid], entry.proposal
    )
    return run_protocol(
        row, config, metas, seed=3, byzantine={pid: behavior},
        validity=string_validity,
    )


def assert_agreement_and_validity(result, row):
    """Every correct process decided the row's common proposal."""
    report = verify_run(result, expected_decision=PROTOCOLS[row].proposal)
    assert report.ok, report.summary()


def well_formed_field(name, api, session, phase, value):
    """A well-typed stand-in for field ``name``: it verifies under no
    statement a protocol expects, but only the garbage field is
    malformed."""
    partial = api.suite.partial_for_certificate(api.pid, "hostile", 1, "x")
    if name == "session":
        return session
    if name in PHASE_FIELDS:
        return phase
    if name == "partial":
        return partial
    if name in ("proof", "certificate", "support"):
        return api.suite.combine_certificate("hostile", 1, "x", [partial])
    if name == "signed":
        return sign_value(api.signer, value)
    if name == "chain":
        return (api.signer.sign("x"),)
    return value


def hostile_copies(cls, session, proposal):
    """``make(api)``: one copy of ``cls`` per (phase, field, garbage),
    each well formed but for that one field."""

    def make(api):
        copies = []
        for phase in range(1, N + 1):
            template = cls(**{
                f.name: well_formed_field(f.name, api, session, phase, proposal)
                for f in dataclasses.fields(cls)
            })
            for f in dataclasses.fields(cls):
                for garbage in GARBAGE:
                    copies.append(dataclasses.replace(template, **{f.name: garbage}))
        return copies

    return make


def test_every_payload_class_has_a_reader():
    assert sorted(CLASSES) == sorted(READERS)


CASES = [
    (name, row, session)
    for name, rows in sorted(READERS.items())
    for row, session in sorted(rows.items())
]


@pytest.mark.parametrize(
    "name,row,session", CASES, ids=[f"{name}-{row}" for name, row, _ in CASES]
)
def test_one_garbage_field_is_ignored(name, row, session):
    behavior = Scripted(
        hostile_copies(CLASSES[name], session, PROTOCOLS[row].proposal),
        every_tick=row in INBOX_ROWS,
    )
    result = run_row(row, behavior, pid=byzantine_pid(row))
    assert any(
        b.payload_type == name and not b.sender_correct
        for b in result.ledger.bills
    )
    assert_agreement_and_validity(result, row)


# ----------------------------------------------------------------------
# The crashes the battery was written for
# ----------------------------------------------------------------------


def _phases(payload):
    return [
        dataclasses.replace(payload, phase=phase) for phase in range(1, N + 1)
    ]


def test_bb_leader_proposes_an_unencodable_signed_value():
    forged = SignedValue(payload={"x": 1}, signature=Signature(0, b""))
    behavior = Scripted(
        lambda api: _phases(WbaPropose("bb/wba", 0, forged))
    )
    assert_agreement_and_validity(run_row("bb", behavior), "bb")


def test_bb_leader_proposes_an_idk_certificate_on_an_unencodable_payload():
    def make(api):
        scheme = api.suite.scheme(IDK_LABEL, api.config.small_quorum)
        forged = QuorumCertificate(
            label=IDK_LABEL,
            payload={"x": 1},
            signature=ThresholdSignature(
                scheme.scheme_id, 1, 1, frozenset({api.pid})
            ),
        )
        return _phases(WbaPropose("bb/wba", 0, forged))

    assert_agreement_and_validity(run_row("bb", Scripted(make)), "bb")


def test_strong_ba_leader_receives_shares_on_unhashable_values():
    def make(api):
        k = api.config.small_quorum
        partial = api.suite.partial_for_certificate(
            api.pid, propose_label("sba"), k, ("propose", 1)
        )
        decide = api.suite.partial_for_certificate(
            api.pid, decide_label("sba"), api.config.n, ("decide", 1)
        )
        return [
            SbaInput(session="sba", value=[1], partial=partial),
            SbaDecideShare(session="sba", value=[1], partial=decide),
        ]

    assert_agreement_and_validity(run_row("strong_ba", Scripted(make)), "strong_ba")


@pytest.mark.parametrize("chain", [5, [1, 2], ("junk",), [1]])
def test_dolev_strong_ignores_a_chain_that_is_not_signatures(chain):
    behavior = Scripted(
        lambda api: [SignatureChain(value="payload", chain=chain)],
        every_tick=True,
    )
    assert_agreement_and_validity(run_row("dolev_strong", behavior), "dolev_strong")


def test_a_byzantine_payload_whose_accounting_raises_is_billed_the_minimum():
    vote = WbaVote(session="wba", phase=1, value="proposal", partial="junk")
    result = run_row("weak_ba", Scripted(lambda api: [vote]))
    assert_agreement_and_validity(result, "weak_ba")
    (bill,) = [
        b for b in result.ledger.bills
        if b.payload_type == "WbaVote" and not b.sender_correct
    ]
    assert (bill.words, bill.signatures) == (1, 0)


class _Shrunk:
    def words(self):
        return 0


def test_a_correct_senders_broken_accounting_still_raises():
    ledger = WordLedger()
    with pytest.raises(WordAccountingError):
        ledger.record(
            tick=0, sender=0, receivers=(1,), payload=_Shrunk(), scope="s",
            sender_correct=True,
        )
    bill = ledger.record(
        tick=0, sender=0, receivers=(1,), payload=_Shrunk(), scope="s",
        sender_correct=False,
    )
    assert (bill.words, bill.signatures) == (1, 0)

