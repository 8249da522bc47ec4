"""Property tests for the invariants recovery leans on (ISSUE satellite 2).

Replay's correctness argument rests on two facts:

* **Quorum intersection** — the paper's commit quorum ``⌈(n+t+1)/2⌉``
  guarantees any two quorums share a *correct* process, so a recovered
  process adopting a logged certificate can never contradict a quorum
  the live cluster assembled while it was down.
* **Deterministic crypto reconstruction** — a deployment rebuilt from a
  WAL's ``(n, t, seed)`` metadata produces *byte-identical* keys,
  shares, and certificates, so replayed certificates verify against the
  live run's and vice versa.

Both are checked over a seeded-random grid of ``(n, t)`` deployments
(the grid seed follows ``REPRO_TEST_SEED``, so CI's seed matrix walks
different grids).
"""

from __future__ import annotations

import math
import pickle
import random

import pytest

from repro.config import RunParameters, SystemConfig
from repro.core.validity import ExternalValidity
from repro.core.weak_ba import (
    commit_label,
    fallback_label,
    finalize_label,
    run_weak_ba,
)
from repro.crypto.certificates import CryptoSuite, QuorumCertificate
from repro.faults import FaultPlan, ProcessCrash
from repro.recovery import RecoveryManager, load_history, replay_wal

GRID_SIZE = 12


def deployment_grid(seed: int, *, max_n: int = 9) -> list[tuple[int, int]]:
    """Seeded-random sample of legal ``(n, t)`` deployments."""
    rng = random.Random(seed * 0x9E3779B1)
    grid = []
    for _ in range(GRID_SIZE):
        t = rng.randint(0, (max_n - 1) // 2)
        n = rng.randint(2 * t + 1, max_n)
        grid.append((n, t))
    return grid


class TestQuorumIntersection:
    def test_commit_quorum_is_the_papers_ceiling(self, test_seed):
        for n, t in deployment_grid(test_seed):
            config = SystemConfig(n=n, t=t)
            assert config.commit_quorum == math.ceil((n + t + 1) / 2)

    def test_any_two_quorums_share_a_correct_process(self, test_seed):
        """Worst case *and* random case: two commit quorums always
        overlap in ≥ t+1 processes, so at least one is correct even if
        every Byzantine process sits in the intersection."""
        rng = random.Random(test_seed)
        for n, t in deployment_grid(test_seed):
            config = SystemConfig(n=n, t=t)
            q = config.commit_quorum
            assert 2 * q - n >= t + 1
            # Adversarial placement: maximally disjoint quorums, with
            # every Byzantine process inside their intersection.
            first = set(range(q))
            second = set(range(n - q, n))
            overlap = first & second
            assert len(overlap) >= t + 1
            byzantine = set(list(overlap)[:t])
            assert overlap - byzantine, "no correct process in overlap"
            # Random placement can only overlap more.
            for _ in range(4):
                a = set(rng.sample(range(n), q))
                b = set(rng.sample(range(n), q))
                assert len(a & b) >= 2 * q - n

    def test_quorum_unreachable_when_too_many_crash(self, test_seed):
        """The battery's crash faults count toward ``f``: once more than
        ``n - commit_quorum`` processes are down, no new certificate can
        form — recovery must replay old ones, never mint new ones."""
        for n, t in deployment_grid(test_seed):
            config = SystemConfig(n=n, t=t)
            q = config.commit_quorum
            assert config.commit_quorum_reachable(0)
            assert config.commit_quorum_reachable(n - q)
            assert not config.commit_quorum_reachable(n - q + 1)


class TestCertificateReconstruction:
    """A replayed deployment (rebuilt from WAL meta) must reproduce the
    live deployment's certificates bit-for-bit."""

    def test_same_seed_suites_make_byte_identical_certificates(self, test_seed):
        rng = random.Random(test_seed + 1)
        for n, t in deployment_grid(test_seed):
            config = SystemConfig(n=n, t=t)
            suite_seed = rng.randint(0, 2**31)
            live = CryptoSuite(config, seed=suite_seed)
            rebuilt = CryptoSuite(config, seed=suite_seed)
            q = config.commit_quorum
            signers = rng.sample(range(n), q)
            payload = ("commit", rng.randint(0, 999), "v")
            certs = [
                suite.combine_certificate(
                    "prop:qc", q, payload,
                    [
                        suite.partial_for_certificate(pid, "prop:qc", q, payload)
                        for pid in signers
                    ],
                )
                for suite in (live, rebuilt)
            ]
            assert pickle.dumps(certs[0]) == pickle.dumps(certs[1])
            # Cross-verification: each deployment accepts the other's.
            assert rebuilt.verify_certificate(certs[0], "prop:qc", q)
            assert live.verify_certificate(certs[1], "prop:qc", q)

    def test_different_seed_suites_reject_each_other(self, test_seed):
        config = SystemConfig(n=4, t=1)
        a = CryptoSuite(config, seed=test_seed)
        b = CryptoSuite(config, seed=test_seed + 1)
        q = config.commit_quorum
        cert = a.combine_certificate(
            "prop:qc", q, "v",
            [a.partial_for_certificate(pid, "prop:qc", q, "v") for pid in range(q)],
        )
        assert a.verify_certificate(cert, "prop:qc", q)
        assert not b.verify_certificate(cert, "prop:qc", q)


def _wal_certificates(history) -> list[QuorumCertificate]:
    """Every quorum certificate a process durably received: bare ones
    and the ``proof`` fields of protocol payloads."""
    certs = []
    for envelopes in history.inboxes.values():
        for envelope in envelopes:
            payload = envelope.payload
            if isinstance(payload, QuorumCertificate):
                certs.append(payload)
            proof = getattr(payload, "proof", None)
            if isinstance(proof, QuorumCertificate):
                certs.append(proof)
    return certs


class TestReplayedCertificates:
    """End to end: certificates pulled out of a crash-run's WALs verify
    under the deployment rebuilt from that WAL's metadata, and the two
    survivors' copies of each broadcast certificate are byte-identical."""

    @pytest.fixture(scope="class")
    def crash_run(self, tmp_path_factory, test_seed):
        wal_dir = tmp_path_factory.mktemp("wal")
        config = SystemConfig(n=4, t=1)
        plan = FaultPlan(
            crashes=(ProcessCrash(pid=2, at_tick=3, restart_tick=6),),
            seed=test_seed,
        )
        recovery = RecoveryManager(wal_dir)
        result = run_weak_ba(
            config,
            {p: "v" for p in config.processes},
            lambda suite, cfg: ExternalValidity(lambda v: isinstance(v, str)),
            seed=test_seed,
            params=RunParameters(
                seed=test_seed, num_phases=2, fault_plan=plan, recovery=recovery
            ),
        )
        return config, wal_dir, result

    def test_wal_certificates_verify_under_rebuilt_deployment(self, crash_run):
        config, wal_dir, result = crash_run
        checked = 0
        for pid in config.processes:
            history = load_history(wal_dir / f"p{pid}")
            meta = history.meta
            rebuilt = CryptoSuite(
                SystemConfig(n=meta["n"], t=meta["t"]), seed=meta["seed"]
            )
            config = rebuilt.config
            quorums = {
                commit_label("wba"): config.commit_quorum,
                finalize_label("wba"): config.commit_quorum,
                fallback_label("wba"): config.small_quorum,
            }
            for cert in _wal_certificates(history):
                assert rebuilt.verify_certificate(
                    cert, cert.label, quorums[cert.label]
                )
                checked += 1
        assert checked > 0, "no certificates crossed the wire?"

    def test_broadcast_certificates_byte_identical_across_wals(self, crash_run):
        config, wal_dir, result = crash_run
        by_key: dict[bytes, set[int]] = {}
        for pid in config.processes:
            history = load_history(wal_dir / f"p{pid}")
            for cert in _wal_certificates(history):
                by_key.setdefault(pickle.dumps(cert), set()).add(pid)
        # At least one certificate was broadcast: several processes hold
        # byte-identical copies (dict keying by pickled bytes merged them).
        assert any(len(holders) >= 2 for holders in by_key.values())

    def test_replay_reports_are_deterministic(self, crash_run):
        config, wal_dir, result = crash_run
        for pid in config.processes:
            first = replay_wal(wal_dir / f"p{pid}")
            second = replay_wal(wal_dir / f"p{pid}")
            assert first.summary() | {"duration_seconds": 0} == (
                second.summary() | {"duration_seconds": 0}
            )
            assert repr(first.decision) == repr(result.decisions[pid])
