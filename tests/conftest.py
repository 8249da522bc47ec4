"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import pytest

from repro.config import SystemConfig
from repro.crypto.certificates import CryptoSuite


@pytest.fixture(scope="session")
def test_seed() -> int:
    """Suite-wide base seed.  CI's seed-matrix leg re-runs the tier-1
    suite under several values of ``REPRO_TEST_SEED`` to catch
    seed-dependent assumptions; locally it defaults to 7."""
    return int(os.environ.get("REPRO_TEST_SEED", "7"))


def _backend_names() -> list[str]:
    """Backends the suite parametrizes over.  CI's backend-matrix leg
    narrows this with ``REPRO_BACKENDS=cohen`` / ``=civit`` to attribute
    a failure to one stack; locally both run."""
    names = os.environ.get("REPRO_BACKENDS", "cohen,civit")
    return [name.strip() for name in names.split(",") if name.strip()]


@pytest.fixture(params=_backend_names())
def backend(request):
    """One registered protocol backend (the shared Protocol API).  Test
    bodies written against this fixture run verbatim for every stack;
    backend-specific expectations come from the backend's capability
    flags, never from per-backend test copies."""
    import repro.protocols as protocols

    return protocols.get_backend(request.param)


@pytest.fixture
def exact_landing_accounting(monkeypatch):
    """Fail the test if a wall-clock round boundary is ever owed a
    negative number of copies, or if — in a run that closed no round by
    timeout — a copy lands after its boundary opened.  Either means a
    copy was written off twice or written off and then landed, so a
    boundary opened before a real copy arrived: the one accounting error
    the completion clock cannot absorb (a missed write-off only costs
    that round its timeout, after which stragglers are legitimate)."""
    import weakref

    from repro.asyncnet.runner import AsyncNetwork

    errors = []
    timed_out = weakref.WeakSet()
    settle, land, open_ = AsyncNetwork._settle, AsyncNetwork.land, AsyncNetwork._open

    def checked_settle(network, envelope):
        settle(network, envelope)
        if network._due.get(envelope.delivered_at, 0) < 0:
            errors.append(("owed a negative count", envelope))

    def checked_land(network, envelope):
        if envelope.delivered_at <= network.opened and network not in timed_out:
            errors.append(("landed after its boundary opened", envelope))
        land(network, envelope)

    def checked_open(network, timeout=False):
        if timeout:
            timed_out.add(network)
        open_(network, timeout)

    monkeypatch.setattr(AsyncNetwork, "_settle", checked_settle)
    monkeypatch.setattr(AsyncNetwork, "land", checked_land)
    monkeypatch.setattr(AsyncNetwork, "_open", checked_open)
    yield
    assert not errors, errors


@pytest.fixture
def config7() -> SystemConfig:
    """The workhorse deployment: n=7, t=3 (optimal resilience)."""
    return SystemConfig.with_optimal_resilience(7)


@pytest.fixture
def config5() -> SystemConfig:
    return SystemConfig.with_optimal_resilience(5)


@pytest.fixture
def suite7(config7: SystemConfig) -> CryptoSuite:
    return CryptoSuite(config7, seed=42)
