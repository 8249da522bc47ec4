"""The fallback's worst cases at scale reproduce the parent pin.

``tests/pins/scale.json`` was generated before multicasts shared one
envelope, committees were interned and signed objects got one verdict
per suite; it pins the canonical trace, the bills, the ticks and the
decisions of weak BA at n=101 and n=201 with f = t, ``fallback_ba`` at
n=31 and ``cohen_strong_ba`` at n=31, f=3 (``make_scale_pin.py``).
"""

import json

import pytest

from tests.pins import make_scale_pin as pin

PINS = json.loads(pin.PIN.read_text())


def test_pin_covers_every_case_and_nothing_else():
    assert list(PINS) == list(pin.CASES)


@pytest.mark.slow
@pytest.mark.parametrize("case", pin.CASES)
def test_parent_pin_reproduces_at_scale(case):
    assert dict(zip(pin.FIELDS, pin.compute(case))) == dict(
        zip(pin.FIELDS, PINS[case])
    )
