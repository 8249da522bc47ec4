"""Paced runs reproduce the pin written before the timing models were
cut down to lockstep and one ``PartialSynchrony``.

``tests/pins/paced.json`` (``make_paced_pin.py``) pins the canonical
trace, the bills, the ticks, the decisions and ``halted_at`` of every
table row under GST partial synchrony at n = 5 and 7; n = 5 runs here,
n = 7 behind ``slow``.
"""

import json

import pytest

from repro.protocols.table import PROTOCOLS
from tests.pins import make_paced_pin as pin

PINS = json.loads(pin.PIN.read_text())
ROWS = sorted(PROTOCOLS)


def _check_pinned(name, n):
    cases = [case for case in pin.cases((n,)) if case.startswith(f"{name}/")]
    assert cases
    for case in cases:
        assert dict(zip(pin.FIELDS, pin.compute(case))) == dict(
            zip(pin.FIELDS, PINS[case])
        ), case


def test_pin_covers_every_case_and_nothing_else():
    assert list(PINS) == pin.cases()


@pytest.mark.parametrize("name", ROWS)
def test_paced_pin_reproduces(name):
    _check_pinned(name, 5)


@pytest.mark.slow
@pytest.mark.parametrize("name", ROWS)
def test_paced_pin_reproduces_at_n7(name):
    _check_pinned(name, 7)
